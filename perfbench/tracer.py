"""Outside-in tracing: time calls into scanstream by rebinding module attributes.

Nothing under src/ knows about this module.  `Tracer.patch` replaces a
function or method on the module or class the program looks it up from
with a wrapper that times the call, and `Tracer.restore` puts the originals
back.  Because the program looks these names up at call time, the wrappers
see every call the pipeline and the calibration sweep make.

Every wrapped call is a span on an explicit stack, so a parent learns how
much of its interval its children covered (self time = duration minus
child time), and a child inherits the scan id of the span that caused it.
Durations go into one compact float32 array per call site, which keeps the
per-packet sites (millions of calls) at four bytes a call.  Sites marked
`span=True` also keep a full record (id, parent id, site, scan id, start,
duration) in typed arrays; those are the per-scan and coarser calls, and
`write_spans` writes them out when the benchmark ends.
"""
from __future__ import annotations

import time
from array import array

import numpy as np

# a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10
_TAIL_CANDIDATES = (99.9999, 99.999, 99.99, 99.9, 99.0, 90.0, 50.0)


class Site:
    """Timing record of one wrapped call site."""

    __slots__ = ("name", "durations", "total", "child")

    def __init__(self, name: str):
        self.name = name
        self.durations = array("f")  # seconds, one entry per call
        self.total = 0.0  # summed in float64, not from the float32 entries
        self.child = 0.0  # time covered by wrapped calls made inside this site

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def self_time(self) -> float:
        return self.total - self.child

    def percentiles_us(self) -> tuple[float, float, float]:
        """(p50, tail, tail percentile) in microseconds.

        The tail is the highest percentile with at least TAIL_MIN_BEYOND
        samples beyond it; with too few calls for any, tail and percentile
        are 0 (and everything is 0 without calls).
        """
        n = self.calls
        if n == 0:
            return 0.0, 0.0, 0.0
        d = np.frombuffer(self.durations, dtype=np.float32).astype(np.float64) * 1e6
        p50 = float(np.percentile(d, 50))
        for pct in _TAIL_CANDIDATES:
            if n * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
                return p50, float(np.percentile(d, pct)), pct
        return p50, 0.0, 0.0


class Tracer:
    def __init__(self):
        self.sites: dict[str, Site] = {}
        self._site_index: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [span_id, scan_id, child_seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 1
        self.origin = time.perf_counter()
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_site = array("H")
        self.span_scan = array("q")
        self.span_start = array("d")
        self.span_dur = array("d")

    def site(self, name: str) -> Site:
        if name not in self.sites:
            self._site_index[name] = len(self._site_index)
            self.sites[name] = Site(name)
        return self.sites[name]

    def patch(self, owners, attr: str, name: str, *, span: bool = False,
              scan_of=None, before=None, after=None) -> None:
        """Wrap `attr` on every owner (modules or classes sharing one function).

        scan_of(args, kwargs) names the scan a span works on; without it the
        span inherits its parent's.  before(args) runs ahead of the call and
        after(args, result, before_value) after it; both are for counters
        that read program state around a call.
        """
        owners = owners if isinstance(owners, (list, tuple)) else [owners]
        original = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner!r}.{attr} is not the function {name} wraps")
        wrapper = self._wrap(original, self.site(name), span, scan_of, before, after)
        for owner in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, site: Site, span: bool, scan_of, before, after):
        stack = self._stack
        clock = time.perf_counter
        durations = site.durations
        site_idx = self._site_index[site.name]

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if span:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = 0
            if scan_of is not None:
                scan = scan_of(args, kwargs)
            else:
                scan = parent[1] if parent is not None else -1
            frame = [span_id, scan, 0.0]
            ctx = before(args) if before is not None else None
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                durations.append(d)
                site.total += d
                site.child += frame[2]
                if parent is not None:
                    parent[2] += d
                if span:
                    self.span_id.append(span_id)
                    self.span_parent.append(parent[0] if parent is not None else 0)
                    self.span_site.append(site_idx)
                    self.span_scan.append(scan)
                    self.span_start.append(t0 - self.origin)
                    self.span_dur.append(d)
            if after is not None:
                after(args, result, ctx)
            return result

        return wrapper

    def write_spans(self, path) -> int:
        """Write the full span records as CSV; returns how many."""
        names = list(self._site_index)
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,site,scan_id,start_us,dur_us\n")
            for i in range(len(self.span_id)):
                fh.write(
                    f"{self.span_id[i]},{self.span_parent[i]},{names[self.span_site[i]]},"
                    f"{self.span_scan[i]},{self.span_start[i] * 1e6:.3f},"
                    f"{self.span_dur[i] * 1e6:.3f}\n"
                )
        return len(self.span_id)
