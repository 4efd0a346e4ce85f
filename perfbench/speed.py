"""The host's speed during a run, for scaling measured times to a reference host.

On shared cores the speed of this kind of code drifts by up to a factor of
two within a minute.  `SpeedProbe` times a fixed kernel about twice a second
while a workload runs; a time measured over an interval is multiplied by
`factor()` of that interval, giving the seconds it would have taken on a
host where the kernel takes REFERENCE_S.  The kernel
is a frozen copy of bnball's integration at a small scale: scipy DOP853 on
the bubble-deviation ODE of `bnball.ode` (n=7), with a sign event and dense
output.  It shares none of bnball's code, so changes to bnball do not move
it, and it does the same kind of work, so contention slows it as much as it
slows bnball (measured against `bnball.ode.integrate`: log-log slope 0.98,
correlation 0.98 over 5 s windows).  Probe time is left out of every
interval.
"""

from __future__ import annotations

import contextlib
import math
import statistics
import time

from scipy.integrate import solve_ivp

from spans import patched

_N = 7
_K = _N * (_N - 2.0)
_H = (_N - 2.0) / 2.0
_P = 2.0 * _N / (_N - 2.0) - 1.0
_LAM_HAT = 1e-3


def _rhs(y, s):
    v, vp = s
    t = _K / (_K + y * y)
    d = t**_H
    w = d + v
    if w > 0.0 and abs(v) < 0.5 * d:
        df = d * t * t * math.expm1(_P * math.log1p(v / d))
    else:
        df = abs(w) ** (_P - 1.0) * w - d * t * t
    return (vp, -(_N - 1.0) / y * vp - _LAM_HAT * w - df)


def _zero(y, s):
    return (_K / (_K + y * y)) ** _H + s[0]


def kernel() -> None:
    """About 2,600 right-hand-side evaluations; four zero crossings."""
    solve_ivp(_rhs, (1e-6, 400.0), (0.0, 0.0), method="DOP853", rtol=1e-10,
              atol=1e-14, dense_output=True, events=(_zero,))


class SpeedProbe:
    """Kernel samples (start, end) in perf_counter time."""

    # About the kernel's time on the 2-CPU Intel Xeon host the benchmark was written on.
    REFERENCE_S = 0.030
    INTERVAL_S = 0.5
    MARGIN_S = 1.0

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        kernel()  # the first call pays one-off costs

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter()))

    def maybe_sample(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= self.INTERVAL_S:
            self.sample()

    @contextlib.contextmanager
    def hooked(self, module, name: str):
        """Let calls to module.name take a sample when one is due."""
        fn = getattr(module, name)

        def sampled(*args, **kwargs):
            self.maybe_sample()
            return fn(*args, **kwargs)

        with patched({fn: sampled}):
            yield

    def factor(self, a: float, b: float) -> float:
        """Scale from the host as it ran during [a, b] to the reference host.

        Uses the mean of the samples taken within MARGIN_S of the interval
        (all samples when none is): the mean, not the median, because short
        slow spells slow the workload too.  Over ten runs per workload this
        gave run-to-run spreads of 0.03-0.07, against 0.05-0.12 for the
        median and 0.12-0.19 unscaled.
        """
        near = [t1 - t0 for t0, t1 in self.samples
                if t0 >= a - self.MARGIN_S and t1 <= b + self.MARGIN_S]
        return self.REFERENCE_S / statistics.fmean(
            near or [t1 - t0 for t0, t1 in self.samples])

    def work(self, a: float, b: float) -> float:
        """Seconds in [a, b] that were not spent in the probe."""
        probed = sum(max(0.0, min(b, t1) - max(a, t0)) for t0, t1 in self.samples)
        return b - a - probed
