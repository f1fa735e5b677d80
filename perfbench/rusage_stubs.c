/* Peak resident set size from getrusage(2), which the OCaml Unix
   library does not expose. who = 0: this process; who = 1: the largest
   of its waited-for descendants. Linux reports ru_maxrss in KiB. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

value perfbench_maxrss_kb(value who)
{
  struct rusage ru;
  if (getrusage(Int_val(who) == 0 ? RUSAGE_SELF : RUSAGE_CHILDREN, &ru) != 0)
    return Val_long(0);
  return Val_long(ru.ru_maxrss);
}
