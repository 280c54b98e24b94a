import re

import numpy as np
import pytest

from flowgate.dataset import read_dataset, read_latents, write_dataset, write_latents
from flowgate.errors import MalformedRow, OneClassOnly
from flowgate.metrics import (
    ScoredSample, auroc, evaluate, format_report, parse_report, read_report,
    read_scores, tied_ranks, write_report, write_scores,
)
from flowgate.packets import EncodedPacket, Label


def brute_force_auroc(scores, labels):
    """O(n^2) pair counting: the independent oracle, ties worth one half."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_tied_ranks_half_integers():
    ranks = tied_ranks(np.array([0.1, 0.2, 0.2, 0.3]))
    np.testing.assert_array_equal(ranks, [1.0, 2.5, 2.5, 4.0])
    ranks = tied_ranks(np.array([5.0, 5.0, 5.0]))
    np.testing.assert_array_equal(ranks, [2.0, 2.0, 2.0])


def test_auroc_perfect_separation():
    pairs = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
    assert auroc(pairs) == 1.0


def test_auroc_all_identical_scores():
    pairs = [(0.5, 1), (0.5, 0), (0.5, 1), (0.5, 0)]
    assert auroc(pairs) == 0.5


def test_auroc_hand_case():
    # pos {0.4, 0.8}, neg {0.5, 0.1} -> 3 of 4 pairs -> 0.75
    pairs = [(0.4, 1), (0.8, 1), (0.5, 0), (0.1, 0)]
    assert auroc(pairs) == 0.75


def test_auroc_one_class_only():
    with pytest.raises(OneClassOnly):
        auroc([(0.5, 1), (0.6, 1)])


def test_auroc_matches_brute_force_with_ties():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse grid of score values forces plenty of ties
        scores = rng.integers(0, 7, size=n) / 6.0
        fast = auroc(zip(scores, labels))
        slow = brute_force_auroc(scores, labels)
        assert fast == slow, f"trial {trial}: {fast} != {slow}"


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.uniform(0, 1, size=200)
    labels = rng.integers(0, 2, size=200)
    labels[0], labels[1] = 0, 1
    base = auroc(zip(scores, labels))
    cubed = auroc(zip(scores ** 3, labels))
    assert base == cubed


def make_scored(rng, n_normal, n_anomaly):
    out = []
    for i in range(n_normal):
        out.append(ScoredSample(score=float(rng.uniform(0, 0.6)),
                                label=Label.NORMAL, source_id=("t", i)))
    for i in range(n_anomaly):
        out.append(ScoredSample(score=float(rng.uniform(0.4, 1.0)),
                                label=Label.ANOMALY, source_id=("t", n_normal + i)))
    return out


def test_evaluate_histograms_sum_to_class_counts():
    rng = np.random.default_rng(2)
    report = evaluate(make_scored(rng, 5000, 5000))
    assert report.n_neg == 5000 and report.n_pos == 5000
    assert sum(report.hist_normal) == 5000
    assert sum(report.hist_anomaly) == 5000
    assert len(report.hist_normal) == 50
    assert 0.0 <= report.auroc <= 1.0


def test_evaluate_requires_labels():
    with pytest.raises(OneClassOnly):
        evaluate([ScoredSample(score=0.5)])


def test_evaluate_score_one_lands_in_last_bin():
    scored = [ScoredSample(score=1.0, label=Label.ANOMALY),
              ScoredSample(score=0.0, label=Label.NORMAL)]
    report = evaluate(scored)
    assert report.hist_anomaly[-1] == 1
    assert report.hist_normal[0] == 1


def test_report_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    report = evaluate(make_scored(rng, 100, 80))
    assert parse_report(format_report(report)) == report
    path = tmp_path / "report.txt"
    write_report(path, report)
    assert read_report(path) == report


def test_scores_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    scored = make_scored(rng, 10, 10) + [ScoredSample(score=0.25)]
    path = tmp_path / "scores.csv"
    assert write_scores(path, scored) == 21
    back = read_scores(path)
    assert back == scored


def prefix_line(path, lineno, text: bytes) -> None:
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = text + lines[lineno - 1]
    path.write_bytes(b"".join(lines))


CSV_READERS = {
    "dataset": (read_dataset,
                lambda path: write_dataset([EncodedPacket(bytes(1600), Label.NORMAL)] * 3, path)),
    "latents": (read_latents, lambda path: write_latents(path, np.zeros((3, 2)))),
    "scores": (read_scores,
               lambda path: write_scores(path, make_scored(np.random.default_rng(5), 2, 1))),
}


@pytest.mark.parametrize("spoil", [b"\xff", b"1" * 140_000], ids=["bad-byte", "oversized-field"])
@pytest.mark.parametrize("read, write", CSV_READERS.values(), ids=CSV_READERS.keys())
def test_csv_readers_name_the_line_of_a_bad_byte_or_an_oversized_field(tmp_path, read, write,
                                                                       spoil):
    path = tmp_path / "file.csv"
    write(path)
    read(path)
    prefix_line(path, 3, spoil)
    with pytest.raises(MalformedRow, match=re.escape(f"{path}:3: ")):
        read(path)


def test_read_report_names_the_line_of_a_bad_byte(tmp_path):
    path = tmp_path / "report.txt"
    write_report(path, evaluate(make_scored(np.random.default_rng(6), 5, 5)))
    prefix_line(path, 2, b"\xff")
    with pytest.raises(MalformedRow, match=re.escape(f"{path}:2: undecodable text")):
        read_report(path)
