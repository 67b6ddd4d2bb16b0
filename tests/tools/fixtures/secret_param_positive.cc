// Fixture: the secret parameter itself is still tracked, and a PSI_SECRET
// declaration outside a parameter list still marks every declarator.
#include "common/annotations.h"

namespace fx {

int MaskOne(PSI_SECRET int mask, unsigned owner, unsigned count) {
  if (owner >= count) return 0;      // public: no finding
  if (mask > 0) return 1;            // branch on the secret parameter
  return static_cast<int>(owner);
}

struct Pair {
  PSI_SECRET int lo, hi;
};

int Use(const Pair& p, int x) {
  if (p.hi > x) return 1;            // second declarator is secret too
  return x;
}

}  // namespace fx
