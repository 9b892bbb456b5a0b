"""A reference kernel that tracks the processor's speed during a run.

On a shared virtual machine the processor's speed drifts: the same
CPU-bound chain run takes 1.4 s in one minute and 2.5 s a few minutes
later, with no steal time to show for it. Raw wall times of short
interpreter-bound work taken minutes apart are therefore not comparable.
The benchmark runs a kernel that does the same kind of work right before
and right after each such measurement, and scales it,

    wall time * kernel reference time / mean(kernel before, after)

to the wall time at the speed the kernel measures in ``REFERENCE_S`` on an
idle machine. The speed flips between a fast and a slow state within about
a second, so only short measurements (under about 1.5 s) are scaled, for
the bracketing samples to see the same state as the work they bracket:
chain runs of the CPU-bound CLI workloads, which are sized to stay that
short, and ``setup_s`` samples. ``remote_backends`` waits on fixed-latency
fakes and is not scaled.

The kernel is a frozen copy of the seed's mock scan, walking a 2,000-term
lexicon of pseudo-word tuples, and calls no phenotag code, so a change to
the program cannot move it: a faster program shows as a smaller scaled
time, a drifting machine does not.
"""

from __future__ import annotations

import random
import re
import time

import generate

_TOKEN = re.compile(r"\w+")
_rng = random.Random("reference kernels")
_LEXICON = generate.disease_terms(_rng, 2000)
_SCAN_TEXT = " ".join(_rng.choice(generate.FILLER) for _ in range(14))


def scan_kernel() -> int:
    """The seed's mock NER: build the sorted lexicon, longest-match scan."""
    terms = [(tuple(term.split()), i) for i, term in enumerate(_LEXICON)]
    terms.sort(key=lambda item: (-len(item[0]), item[0]))
    tokens = [(m.group(0).lower(), m.start(), m.end()) for m in _TOKEN.finditer(_SCAN_TEXT)]
    hits = 0
    for i in range(len(tokens)):
        for term, _ in terms:
            if i + len(term) > len(tokens):
                continue
            if all(tokens[i + j][0] == term[j] for j in range(len(term))):
                hits += 1
                break
    return hits


# Kernel time on an idle 2-CPU x86-64 virtual machine, in seconds.
REFERENCE_S = 0.025


def kernel_time() -> float:
    start = time.perf_counter()
    scan_kernel()
    return time.perf_counter() - start


def scaled(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at the kernel's reference speed, from the kernel's times
    just before and just after."""
    return wall_s * REFERENCE_S * 2.0 / (before_s + after_s)
