// Seeded input-check violation: an assertion on a file-derived value in
// an input reader, next to a marked invariant that must stay silent.
#define CGC_CHECK_MSG(expr, msg) ((void)(expr), (void)(msg))

void parse_header(unsigned version, const char* buffer) {
  CGC_CHECK_MSG(version == 1, "unsupported version");  // line 6
  // cgc-lint: allow(input-check) caller precondition, not file input
  CGC_CHECK_MSG(buffer != nullptr, "null buffer");
}
