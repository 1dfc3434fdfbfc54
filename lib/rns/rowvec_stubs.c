/* Keep every malloc'd residue row in glibc's main arena (see rowvec.ml).
   A no-op on other C libraries. */
#include <stdlib.h>
#include <caml/mlvalues.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

value eva_rowvec_single_malloc_arena(value unit)
{
#if defined(__GLIBC__) && defined(M_ARENA_MAX)
  mallopt(M_ARENA_MAX, 1);
#endif
  return Val_unit;
}
