"""The byte-identity gate: the benchmark's digested outputs keep their pins.

``perfbench/run.py``'s ``run_loop`` hashes the stdout of each workload's
first rounds (1, 1 and 16 of them) with SHA-256.  Here every workload
runs those rounds alone, after its warm-ups, for seeds 0 and 1, and each
digest must equal its pin.  A change that moves a digest changes what the
CLI prints on a benchmark request; one that does so on purpose updates
the pin in the same commit and says why.  All six take about a second.
"""

from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402
from jetforge import cli  # noqa: E402

DIGESTS = {
    ("solve-deep", 0): "75db43591ba2ff15de8d9fde830868b559206c8417f028bd35b4b53dffc9c9ad",
    ("solve-deep", 1): "ce26be853317fb891a4649f1a8b9505e2229b07f334ccb2ba40d39f1c6dd3862",
    ("glue-multi", 0): "22863ba350c711d7875185d246755301acb9f9a44a3b662f7390ea8df327e77f",
    ("glue-multi", 1): "44f7db97e01763db99440d14557f8350713a1fc8c4b44a59498f97cf5d1efe64",
    ("mixed-small", 0): "f4fde658888ad2d01d709f5e07c36c3efd0b609c7c5a2b611e039c745e957e7f",
    ("mixed-small", 1): "736d67980ff35d5a1c40e331607e3bcdb7f39dbeaad1108e667c7b9f460eed6d",
}


# a workload without a pin fails on the lookup
@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("seed", (0, 1))
def test_digested_rounds_match_their_pin(name, seed, tmp_path):
    wl = workloads.make(name, seed, tmp_path)
    for argv in wl.warmup:
        run.call(cli, argv)
    _, _, digest = run.run_loop(cli, wl, 0, io.StringIO())
    assert digest == DIGESTS[name, seed]
