/* CPU pinning and the monotonic clock, which OCaml's Unix library lacks. */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <caml/alloc.h>
#include <caml/mlvalues.h>

/* Pins the calling thread, and the threads it creates later, to one CPU. */
value perfbench_pin_cpu(value vcpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(vcpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}

/* CLOCK_MONOTONIC in seconds.  It is slewed like the wall clock but never
   stepped, so it times intervals that a wall-clock step would corrupt. */
double perfbench_mono(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

value perfbench_mono_byte(value unit)
{
  return caml_copy_double(perfbench_mono(unit));
}
