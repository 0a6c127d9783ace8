/* CPU placement for the benchmark program: pin to a set of CPUs and
   switch between the normal and the idle scheduling class. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value ftrbench_cpu_count(value unit)
{
  cpu_set_t set;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(CPU_COUNT(&set));
}

/* Keep only the last [n] CPUs of the current affinity mask. */
value ftrbench_cpu_pin(value n)
{
  cpu_set_t set, keep;
  int want = Int_val(n), cpu;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_false;
  CPU_ZERO(&keep);
  for (cpu = CPU_SETSIZE - 1; cpu >= 0 && want > 0; cpu--)
    if (CPU_ISSET(cpu, &set)) {
      CPU_SET(cpu, &keep);
      want--;
    }
  return Val_bool(sched_setaffinity(0, sizeof keep, &keep) == 0);
}

value ftrbench_cpu_idle(value on)
{
  struct sched_param p;
  p.sched_priority = 0;
  return Val_bool(sched_setscheduler(0, Bool_val(on) ? SCHED_IDLE : SCHED_OTHER, &p) == 0);
}
