/* CLOCK_MONOTONIC for Timing's elapsed-time measurements. Unlike
   gettimeofday it never steps (NTP corrections, manual clock changes),
   so a duration read from it is never negative.

   The native entry point takes and returns unboxed values and does not
   allocate (Timing declares it [@@noalloc]); the bytecode one boxes the
   result. */

#include <time.h>

#include <caml/alloc.h>
#include <caml/mlvalues.h>

double bionav_monotonic_ms(value v_unit)
{
  struct timespec ts;
  (void)v_unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e3 + (double)ts.tv_nsec / 1e6;
}

CAMLprim value bionav_monotonic_ms_byte(value v_unit)
{
  return caml_copy_double(bionav_monotonic_ms(v_unit));
}
