// Fixture: no violations — a PSI_SECRET parameter taints only itself. The
// parameters after it in the same list are public (the MaskShares shape in
// mpc/secure_division.h): branching on them and indexing by them is fine.
#include "common/annotations.h"

namespace fx {

int MaskOne(PSI_SECRET const int* masks, const unsigned* owners,
            unsigned count, unsigned c) {
  if (c >= count) return 0;          // public later parameter in a branch
  unsigned owner = owners[c];        // indexed by a public parameter
  if (owner >= count) return -1;     // derived from public parameters only
  return masks[owners[c]] * 3;       // public index into the secret masks
}

}  // namespace fx
