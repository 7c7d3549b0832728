"""Front checks and digest stability."""

import json
import os
import subprocess
import sys

import checks
from common import BENCH_DIR, child_env


def test_front_problems_flag_empty_and_dominated_fronts():
    assert checks.front_problems("f", []) == ["f: empty front"]
    good = [["a", 1.0, 5.0, 2.0], ["b", 2.0, 4.0, 2.0], ["c", 2.0, 4.0, 2.0]]
    assert checks.front_problems("f", good) == []  # equal points coexist
    bad = good + [["d", 3.0, 4.0, 2.0]]
    assert checks.front_problems("f", bad) == [
        "f: b dominates d", "f: c dominates d"
    ]


def test_front_digest_depends_on_every_bit_of_the_objectives():
    rows = [["a", 1.0, 5.0, 2.0]]
    nudged = [["a", 1.0, 5.0, 2.0000000000000004]]
    assert checks.front_digest({"f": rows}) == checks.front_digest({"f": rows})
    assert checks.front_digest({"f": rows}) != checks.front_digest({"f": nudged})


def test_every_workload_pins_the_default_and_held_out_seed():
    pinned = json.loads(checks.PINNED_PATH.read_text())
    assert set(pinned) == {"explore-compress", "coverage-li", "service-warm"}
    for digests in pinned.values():
        assert set(digests) == {
            str(checks.DEFAULT_SEED), str(checks.HELD_OUT_SEED)
        }


_DIGEST_SCRIPT = """
import checks, sys
from repro.core.design_point import summarize
from repro.core.memorex import MemorExConfig, run_memorex
from repro.apex.explorer import ApexConfig
from repro.conex.explorer import ConExConfig
from repro.workloads import get_workload
result = run_memorex(
    get_workload("vocoder", scale=0.02, seed=3),
    config=MemorExConfig(apex=ApexConfig(select_count=3),
                         conex=ConExConfig(phase1_keep=4)),
    workers=1,
)
rows = [checks.summary_row(summarize(p)) for p in result.selected_points]
print(checks.front_digest({"vocoder": rows}))
"""


def test_front_digest_is_stable_across_hash_seeds():
    digests = set()
    for hash_seed in ("0", "1", "4242"):
        env = child_env()
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join([str(BENCH_DIR), env["PYTHONPATH"]])
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=120,
        ).stdout
        digests.add(out.strip().splitlines()[-1])
    assert len(digests) == 1

