"""Seeded outputs pinned by SHA-256.

The hashes were recorded under draw layout ``LAYOUT``.  A change that
alters the draw stream must bump ``chains.RNG_LAYOUT`` and re-record them;
any other change must leave every hash as it is.  A hash also moves when
the backend of its path changes: ``ESTIMATE`` pins the exact count, which
draws nothing.
"""

import hashlib

import pytest

from degmc.chains import RNG_LAYOUT, make_rng
from degmc.cli import EXIT_OK, main
from degmc.counting import estimate_count, sample_interval, sample_realization
from degmc.graphs import DegreeInterval, write_edge_list
from degmc.oracle import TooLarge

LAYOUT = 4
SAMPLE = {
    "switch": ("9f1d8ee53cf08e8b1e4807dda33ef517c61b5e389e36a3b25b1151711d134f1a",
               "9b53865bf25a3457cb5172b695fb5f596bce124122d33dcc6a95b4daaeba0200"),
    "switch-hinge": ("ca863a1398e9d07d019ecd13e3511c2461672a61ae25455a755caa418217c879",
                     "3ea86c9a5ffaf3a457b1acbb8f2aaea390de796008461d2e31ae181e30b7f192"),
    "interval": ("43acfcd3a90a2adafaea855553b83068b889f1499f6c46706949c35969d4da58",
                 "25c5d26abbb17ce9b91d595f7dc3d7265391a3a4027390b851e6f0c6154687f4"),
}
DRAW = {6: "530267513b6eb26b3f48cd0a594843a8a0572e35014b1a258b28418bc980db27",
        9: "f2fc61bf77d9ad55d1ece9a58e8dd8002beeffc327211ec6ac51b2bee54abe75"}
ESTIMATE = "69f6469d515e3b1fae667868f48dca38f80c40d227194a0b2a5aff28c34394a9"


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_layout():
    assert RNG_LAYOUT == LAYOUT, "the draw layout changed: re-record the hashes in this file"


@pytest.mark.parametrize("chain", SAMPLE)
def test_sample_files(tmp_path, chain):
    """degmc sample on n = 10: 3-regular for the switch chain, [2,3]^10 for
    the others (m = 12 for switch-hinge); seed 7, 2,000 steps, two files."""
    lo, extra = {"switch": (3, []), "switch-hinge": (2, ["--m", "12"]), "interval": (2, [])}[chain]
    intervals = tmp_path / "iv.txt"
    intervals.write_text("".join(f"{i} {lo} 3\n" for i in range(10)))
    base = tmp_path / chain
    rc = main(["sample", str(intervals), "--chain", chain, "--steps", "2000", "--count", "2",
               "--seed", "7", "--output", str(base)] + extra)
    assert rc == EXIT_OK
    assert tuple(sha(tmp_path / f"{chain}_{k:04d}.edges") for k in range(2)) == SAMPLE[chain]


@pytest.mark.parametrize("n", DRAW)
def test_sample_interval(tmp_path, n):
    """sample_interval on [2,3]^n, seed 5: exact draws (count-recursion
    walks) at n = 6 and n = 9."""
    path = tmp_path / "draw.edges"
    write_edge_list(path, sample_interval(DegreeInterval((2,) * n, (3,) * n), make_rng(5)))
    assert sha(path) == DRAW[n]


def test_sample_realization_chain():
    """sample_realization of 3-regular graphs on n = 14 nodes, seed 4: above
    the count recursion's cap it raises TooLarge rather than drawing."""
    with pytest.raises(TooLarge):
        sample_realization((3,) * 14, make_rng(4))


def test_estimate_count():
    """estimate_count on [2,3]^6, eps 0.1, delta 0.05, seed 3, as JSON: the
    exact count, whose ``value_if_small`` is the integer 1760."""
    est = estimate_count(DegreeInterval((2,) * 6, (3,) * 6), 0.1, 0.05, seed=3)
    assert '"value_if_small": 1760,' in est.to_json()
    assert hashlib.sha256(est.to_json().encode()).hexdigest() == ESTIMATE
