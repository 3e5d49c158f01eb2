/* poll(2)/ppoll(2) bindings for the reactor's readiness backend.

   Unix.select cannot express a descriptor number at or above
   FD_SETSIZE (1024): the OCaml binding rejects it with EINVAL, which
   caps a select-backed reactor at ~1k concurrent connections per
   process — three decimal orders below the serving layer's target.
   poll(2) has no such ceiling (POSIX, present on every platform this
   repo builds on), so it is the reactor's one readiness backend.

   The interface is deliberately dumb: parallel int arrays in, revents
   bits out, so the OCaml side owns all bookkeeping and the stub stays
   a straight syscall wrapper.  Interest/result bits:

     1 = readable (POLLIN;  results also set it on POLLERR/POLLHUP so a
         broken fd wakes its waiter, whose own syscall then surfaces
         the error)
     2 = writable (POLLOUT; same error/hup widening)
     4 = invalid  (POLLNVAL: the fd is not open — the probe sweep turns
         this into EBADF for the parked fiber)

   The timeout is in microseconds (-1 = wait forever, 0 = one
   non-blocking pass): an idle scheduler worker waits in the backend
   for at most its 50 us base backoff, which poll's millisecond
   timeout cannot express, so the pass goes through ppoll(2) and its
   timespec.  Where ppoll is missing the timeout is rounded down to
   whole milliseconds for plain poll(2): the wait never exceeds its
   budget, a sub-millisecond budget becomes a zero-timeout pass, and
   the scheduler sleeps the unused remainder as it did before.

   Return value: poll's own (number of fds with non-zero revents), or
   -1 for EINTR — the caller retries with a recomputed timeout.  Other
   errors (EFAULT/EINVAL/ENOMEM) are programming or resource errors and
   raise Failure.

   The fd/events arrays are copied out before releasing the runtime
   lock and the revents written back only after re-acquiring it: the GC
   may move the OCaml arrays while the lock is down. */

#if defined(__linux__)
#define _GNU_SOURCE
#endif

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>

#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>
#include <time.h>

#if defined(__linux__) || defined(__FreeBSD__) || defined(__OpenBSD__) \
    || defined(__NetBSD__) || defined(__DragonFly__)
#define LHWS_HAVE_PPOLL 1
#endif

static int wait_pollfds(struct pollfd *pfds, int n, long timeout_us)
{
#ifdef LHWS_HAVE_PPOLL
  struct timespec ts;
  if (timeout_us < 0) return ppoll(pfds, (nfds_t)n, NULL, NULL);
  ts.tv_sec = timeout_us / 1000000;
  ts.tv_nsec = (timeout_us % 1000000) * 1000;
  return ppoll(pfds, (nfds_t)n, &ts, NULL);
#else
  int ms = timeout_us < 0 ? -1 : (int)(timeout_us / 1000);
  return poll(pfds, (nfds_t)n, ms);
#endif
}

CAMLprim value lhws_poll_stub(value vfds, value vevents, value vrevents,
                              value vn, value vtimeout_us)
{
  CAMLparam5(vfds, vevents, vrevents, vn, vtimeout_us);
  int n = Int_val(vn);
  long timeout_us = Long_val(vtimeout_us);
  struct pollfd small[64];
  struct pollfd *pfds = small;
  int ret;

  if (n < 0 || n > Wosize_val(vfds) || n > Wosize_val(vevents)
      || n > Wosize_val(vrevents))
    caml_failwith("lhws_poll: bad length");

  if (n > 64) {
    pfds = malloc((size_t)n * sizeof(struct pollfd));
    if (pfds == NULL) caml_failwith("lhws_poll: out of memory");
  }

  for (int i = 0; i < n; i++) {
    int ev = Int_val(Field(vevents, i));
    pfds[i].fd = Int_val(Field(vfds, i));
    pfds[i].events = (short)(((ev & 1) ? POLLIN : 0) | ((ev & 2) ? POLLOUT : 0));
    pfds[i].revents = 0;
  }

  caml_enter_blocking_section();
  ret = wait_pollfds(pfds, n, timeout_us);
  caml_leave_blocking_section();

  if (ret < 0) {
    int e = errno;
    if (pfds != small) free(pfds);
    if (e == EINTR) CAMLreturn(Val_int(-1));
    caml_failwith("lhws_poll: poll(2)/ppoll(2) failed");
  }

  for (int i = 0; i < n; i++) {
    short re = pfds[i].revents;
    int out = 0;
    if (re & (POLLIN | POLLERR | POLLHUP)) out |= 1;
    if (re & (POLLOUT | POLLERR | POLLHUP)) out |= 2;
    if (re & POLLNVAL) out |= 4;
    Store_field(vrevents, i, Val_int(out));
  }

  if (pfds != small) free(pfds);
  CAMLreturn(Val_int(ret));
}

/* Best-effort RLIMIT_NOFILE raise: lift the soft limit toward the hard
   limit, up to [want] descriptors, and return the resulting soft
   limit.  The c10k bench legs call this so a default 1024-fd shell
   does not masquerade as a scheduler ceiling; failure is not an error
   (the caller scales the leg to what it got). */
CAMLprim value lhws_raise_nofile_stub(value vwant)
{
  CAMLparam1(vwant);
  struct rlimit rl;
  rlim_t want = (rlim_t)Long_val(vwant);

  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) CAMLreturn(Val_long(-1));
  if (rl.rlim_cur < want) {
    rlim_t target = want;
    if (rl.rlim_max != RLIM_INFINITY && target > rl.rlim_max)
      target = rl.rlim_max;
    if (target > rl.rlim_cur) {
      struct rlimit nrl = rl;
      nrl.rlim_cur = target;
      if (setrlimit(RLIMIT_NOFILE, &nrl) == 0) rl.rlim_cur = target;
    }
  }
  if (rl.rlim_cur == RLIM_INFINITY) CAMLreturn(Val_long(1 << 30));
  CAMLreturn(Val_long((long)rl.rlim_cur));
}
