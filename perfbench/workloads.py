"""Inputs of the three benchmark workloads, shared by the runner and its worker.

Two sizes exist: ``full`` is what the benchmark measures, ``smoke`` is a tiny
version of the same shapes that the self-tests run.  Both have stored
reference outputs (see make_reference.py).
"""

from __future__ import annotations

import random

SIZES = ("full", "smoke")

FIGURES = tuple(range(1, 9))

# --steps per figure; None keeps the CLI default, as a user runs it.
FIGURE_STEPS = {
    "full": {fig: None for fig in FIGURES},
    "smoke": {1: 21, 2: 5, 3: 3, 4: 5, 5: 3, 6: 3, 7: 3, 8: 3},
}

# psv + blurred PNRD: blur_pmf dominates, r reaches 2.5, no Wigner, no
# displace, and homodyne only through the psv angle search.
SWEEP_CONFIG = {
    "full": "family = psv\nstart = 0.5\nstop = 2.5\nsteps = 5\n"
            "detector = pnrd\nsigma = 1, 2, 3\n",
    "smoke": "family = psv\nstart = 0.5\nstop = 1.5\nsteps = 3\n"
             "detector = pnrd\nsigma = 1, 2\n",
}

# One round of the points stream visits every (family, detector, sigma)
# cell once, in a seeded order with seeded parameters, so every run sees
# the same mix and seeds differ only in the draws.
POINT_FAMILIES = (("css", None), ("dfs", None), ("psv", 1), ("psv", 2))
POINT_DETECTORS = ("homodyne", "pnrd")
POINT_SIGMAS = (0.0, 0.5, 1.0, 2.0)


def _point_argv(rng: random.Random, family: str, m, detector: str,
                sigma: float) -> list:
    if family == "psv":
        param = ["--r", f"{rng.uniform(0.1, 1.0):.4f}", "--m", str(m)]
    else:
        param = ["--alpha", f"{rng.uniform(0.01, 4.0):.4f}"]
    return ["compute", "--family", family, *param,
            "--detector", detector, "--sigma", f"{sigma:g}"]


def point_rounds(seed):
    """Endless seeded stream of rounds; each round is a list of compute argvs."""
    rng = random.Random(seed)
    cells = [(family, m, detector, sigma)
             for family, m in POINT_FAMILIES
             for detector in POINT_DETECTORS
             for sigma in POINT_SIGMAS]
    while True:
        order = list(cells)
        rng.shuffle(order)
        yield [_point_argv(rng, *cell) for cell in order]


def warmup_round(seed) -> list:
    """A round drawn from a stream of its own, so it shares no inputs with
    the timed stream of the same seed."""
    return next(point_rounds(f"warmup-{seed}"))


def point_key(argv) -> str:
    return " ".join(argv)


def point_options(argv) -> dict:
    """``{"--family": "dfs", "--alpha": "1.2345", ...}`` of a compute argv."""
    return dict(zip(argv[1::2], argv[2::2]))
