// Annotation vocabulary for psi_lint's flow-sensitive secret-taint engine.
//
// PSI_SECRET marks a field, parameter, or local whose value must never
// influence control flow, variable-time arithmetic, memory addresses, shift
// counts, log output, or an unencrypted network send. The macro expands to
// nothing — it exists purely so tools/psi_lint can track where secret values
// flow (the secret-flow check in docs/STATIC_ANALYSIS.md). Annotate the
// declaration:
//
//   PSI_SECRET BigUInt lambda;                 // struct field
//   void Derive(PSI_SECRET const BigUInt& p);  // parameter
//
// Taint propagates through assignments and return values: a local assigned
// from a secret is secret, and a function whose return value derives from a
// secret parameter taints its call sites.
//
// PSI_SANITIZES marks a declassification boundary: a function whose return
// value is safe to branch on, send, or log even when its arguments are
// secret (masking, encryption, constant-time comparison).
// Place it on the declaration; psi_lint picks up the function name that
// follows:
//
//   PSI_SANITIZES BigUInt MaskShare(PSI_SECRET const BigUInt& s, ...);
//
// The old name-vocabulary heuristic (any function called Mask/Encrypt/...)
// is gone: only explicitly annotated functions launder taint. A secret that
// reaches a sink without passing through a PSI_SANITIZES call needs a
// `// psi-lint: allow(secret-flow) <reason>` suppression with a written
// justification.

#ifndef PSI_COMMON_ANNOTATIONS_H_
#define PSI_COMMON_ANNOTATIONS_H_

#define PSI_SECRET
#define PSI_SANITIZES

#endif  // PSI_COMMON_ANNOTATIONS_H_
