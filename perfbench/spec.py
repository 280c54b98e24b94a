"""What each workload runs: input sizes, model settings and operation counts.

Shared by the input generator (`fixtures.py`) and the measured process
(`measure.py`). Nothing here imports flowgate.
"""
from __future__ import annotations

import os

WORKLOADS = ("train", "resweep", "score")

# One BLAS thread per core, at most two. Set before numpy is imported in every
# process the benchmark starts.
BLAS_THREADS = max(1, min(2, os.cpu_count() or 1))
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Pipeline settings for `train` and `resweep`: the default widths (encoder
# 1600-512-128-70, discriminator 1600-256-64-1, classifier 70-64-32-1,
# 8 coupling blocks of width 128), a fixed epoch count, and patience equal to
# it so early stopping cannot change the amount of work.
EPOCHS = 2
PIPELINE = dict(epochs=EPOCHS, patience=EPOCHS, batch_size=64, lr=0.001,
                ratio=0.5)

# normal packets in train.csv; `train` uses fewer, so that its run holds
# enough operations for the machine-speed calibration between them
TRAIN_ROWS = {"train": 500, "resweep": 1500}
TEST_NORMAL = 300          # test.csv: normal rows, then anomalous rows
TEST_ANOMALY = 300

TRAIN_GRID = ((0.0, 1.0), (-9.0, 5.0))
# resweep: the fixture workdir holds classifiers for CACHED_GRID only; each
# operation runs the paper's whole grid, so three classifiers are new.
CACHED_GRID = ((0.0, 1.0),)
RESWEEP_GRID = ((-9.0, 5.0), (-25.0, 5.0), (-100.0, 5.0), (0.0, 1.0))

# score: two captures, one per label, each with the same make-up. Every kind
# is an exact count, so kept and dropped counts are known in advance.
# (kind, share of each capture); "keep" frames come from corpus.synthetic_frame.
CAPTURE_MAKEUP = (("keep", 0.75), ("arp", 0.05), ("dns", 0.10),
                  ("tcp_control", 0.05), ("non_ipv4", 0.05))
CAPTURE_FRAMES = {"normal": 7200, "anomaly": 2400}
# the CSV holds the first kept frames of each capture, normal rows first
CSV_ROWS = {"normal": 1200, "anomaly": 400}
# detector behind the scoring engine: trained briefly on the kept normal
# frames that follow the CSV's, default widths, one noise setting
SCORE_TRAIN_ROWS = 600
SCORE_PIPELINE = dict(epochs=1, patience=1, batch_size=64, lr=0.001, ratio=0.5)
SCORE_GRID = ((0.0, 1.0),)
ENCODING_SAMPLES = 256     # kept frames per capture checked byte by byte

# The work in a run is fixed for a given --seconds: the number of operations
# is --seconds divided by the nominal length of one operation, measured on a
# 2-vCPU x86 machine with OpenBLAS. A slower machine runs longer.
NOMINAL_OP_S = {"train": 2.8, "resweep": 2.2, "score": 1.65}
MIN_OPS = {"train": 2, "resweep": 2, "score": 1}

SETUP_PROBES = 8           # extra set-up-only processes per untraced run

# Machine-speed calibration (`speed.py`): rounds of each kernel before the
# first operation and after every operation, so each run spends about 3 s on
# it, and each kernel's nominal seconds per round on the reference machine,
# in `speed.KERNELS` order.
CAL_ROUNDS = {"train": 3, "resweep": 2, "score": 1}
CAL_REF_S = (0.058, 0.062)


# The run's slowness is clamped to this range. The proof runs on the reference
# machine stayed within 0.70-1.26; far outside it something disturbed the
# kernels more than machine drift does (another process on the same cores, or
# threads the measured process left running), and scaling by it would report
# a slowdown as a speed-up.
SLOWNESS_RANGE = (0.5, 1.5)


def run_slowness(cal_s: list) -> float:
    """Mean slowness of the two kernels, clamped to SLOWNESS_RANGE."""
    mean = (slowness(cal_s, 0) + slowness(cal_s, 1)) / 2
    return min(max(mean, SLOWNESS_RANGE[0]), SLOWNESS_RANGE[1])


def slowness(cal_s: list, kernel: int) -> float:
    """Mean measured over nominal round time: above 1 when the machine ran slow."""
    rounds = [t for sample in cal_s for t in sample[kernel]]
    return sum(rounds) / len(rounds) / CAL_REF_S[kernel]


def capture_counts(label: str) -> dict[str, int]:
    total = CAPTURE_FRAMES[label]
    return {kind: int(round(total * share)) for kind, share in CAPTURE_MAKEUP}


def operation_count(workload: str, seconds: float) -> int:
    """Operations (for `score`, rounds of one pcap and one CSV operation)."""
    return max(MIN_OPS[workload], int(round(seconds / NOMINAL_OP_S[workload])))


def noise_tag(mu: float, sigma: float, ratio: float) -> str:
    """File-name tag of a noise setting, as the pipeline's outputs are named."""
    return f"mu{mu:g}_sigma{sigma:g}_ratio{ratio:g}"
