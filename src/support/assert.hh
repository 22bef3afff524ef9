/**
 * @file
 * Assertion macros.
 *
 * TC_ASSERT guards internal invariants; it compiles away in release
 * builds (NDEBUG) unless TC_ENABLE_ASSERTS is defined, as the
 * sanitizer build (CMake option TC_SANITIZE) does. TC_CHECK is always
 * on and is used for user-facing precondition violations (the moral
 * equivalent of gem5's fatal()), while TC_ASSERT corresponds to
 * panic(): it should never fire regardless of what the user does.
 */

#ifndef TC_SUPPORT_ASSERT_HH
#define TC_SUPPORT_ASSERT_HH

#include <cstdio>
#include <cstdlib>

namespace tc {

[[noreturn]] inline void
assertFail(const char *kind, const char *cond, const char *file,
           int line, const char *msg)
{
    std::fprintf(stderr, "%s failed: %s\n  at %s:%d\n  %s\n",
                 kind, cond, file, line, msg ? msg : "");
    std::abort();
}

} // namespace tc

/** Always-on check for user-facing preconditions. */
#define TC_CHECK(cond, msg)                                              \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::tc::assertFail("TC_CHECK", #cond, __FILE__, __LINE__,      \
                             msg);                                       \
        }                                                                \
    } while (0)

#if !defined(NDEBUG) || defined(TC_ENABLE_ASSERTS)
#define TC_ASSERT(cond, msg)                                             \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::tc::assertFail("TC_ASSERT", #cond, __FILE__, __LINE__,     \
                             msg);                                       \
        }                                                                \
    } while (0)
#else
#define TC_ASSERT(cond, msg) do { } while (0)
#endif

#endif // TC_SUPPORT_ASSERT_HH
