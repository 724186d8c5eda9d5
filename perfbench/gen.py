"""Seeded input generator for the benchmark (stdlib only).

Nothing here imports linkchi: a change to the library cannot change the
inputs.  Each workload has a fixed pool of items; item ``i`` is generated
from its own ``random.Random("<workload>:<i>")``, so every item has one
recorded output digest (``digests.json``).  A pass runs every item of the
pool once; the benchmark seed draws the order of the pass.

Why the seed does not pick the items: the cost of one item varies up to 4x
between matrices (a sparse Z gives fewer output terms), and with a seeded
sample of 24 items out of 48 the median operation time differed by 14-32%
(quartile distance over median) between seeds on a 2-core x86 VM.  With the
whole pool in every pass, runs with different seeds do the same work.

Why the pools are small: the benchmark times each item by the median of
its repeats (see run.py), and a pool of six to ten items lets every item
repeat at least three times in a 24 s run.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from itertools import product

# Seifert matrices are built like the library's own generator, but here:
# diagonal blocks Q + Q' + J, symmetric off-diagonal blocks, |entries| <= 2.
ENTRY_BOUND = 2

# Shapes are (genera, degree) and rotate over the pool by item index.
# duality repeats [1,1] d7 so that two thirds of its operations are at the
# size where hat costs far more than chi, and its median operation falls
# among them instead of between the costs of the two sizes.
CHI_WIDE_SPECS = ("delta", "phi", "list")
CHI_WIDE_SHAPE = ((1, 1, 1), 8)
TORSION_SHAPES = (((3, 3), 6), ((3, 3, 3), 4), ((6,), 8))
DUALITY_SHAPES = (((1, 1), 7), ((1, 1, 1), 5), ((1, 1), 7))
SELFCHECK_DEGREE = 5
# Six light seeds (0.4-0.65 s on a 2-core x86 VM) and four heavy ones,
# 5, 7, 15 and 25 (1.1-1.3 s, more than half of it in the edge-cases suite).
# With three passes in a run the heavy seeds give 12 of 30 samples, so
# op_s.tail, which has 10 samples beyond it, is the median of a heavy seed
# and op_s.p50 that of a light one.  Seeds 2 and 32 (3-4 s, edge-cases
# 2.8-3.2 s) are left out: one of them would take 40% of a pass, and three
# passes of it cannot give 10 samples beyond a percentile.
SELFCHECK_SEEDS = (0, 1, 3, 4, 5, 6, 7, 8, 15, 25)

# One pass takes 1.6-8 s on a 2-core x86 VM (run.PASS_S).
POOL_SIZE = {"chi-wide": 6, "torsion": 6, "duality": 6, "selfcheck": len(SELFCHECK_SEEDS)}
WORKLOADS = tuple(POOL_SIZE)

HAT_DELTA_FILE = "hat_delta_d8.txt"


def random_matrix(rng: random.Random, genera) -> dict:
    """A valid Seifert matrix document for the given genera."""
    sizes = [2 * g for g in genera]
    total = sum(sizes)
    entries = [[0] * total for _ in range(total)]
    offsets = [sum(sizes[:i]) for i in range(len(sizes))]
    for off, s in zip(offsets, sizes):
        q = [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(s)] for _ in range(s)]
        for a in range(s):
            for b in range(s):
                # J has a 1 at (2k, 2k+1), so B - B' = J - J' has det 1
                j = 1 if a % 2 == 0 and b == a + 1 else 0
                entries[off + a][off + b] = q[a][b] + q[b][a] + j
    for i in range(len(sizes)):
        for k in range(i + 1, len(sizes)):
            for r in range(offsets[i], offsets[i] + sizes[i]):
                for c in range(offsets[k], offsets[k] + sizes[k]):
                    v = rng.randint(-ENTRY_BOUND, ENTRY_BOUND)
                    entries[r][c] = v
                    entries[c][r] = v
    return {"components": len(sizes), "block_sizes": sizes, "entries": entries}


def random_bi_word(rng: random.Random, degree: int) -> str:
    """A monomial in x and z with x-degree 1..degree and at most three z."""
    letters = ["x"] * rng.randint(1, degree) + ["z"] * rng.randint(0, 3)
    rng.shuffle(letters)
    return "".join(letters)


def hat_delta_lines(degree: int) -> list[str]:
    """hat(log(xz + 1)) up to x-degree ``degree``, one 'coeff word' per line.

    log(xz + 1) = sum_k (-1)^(k+1)/k (xz)^k and hat sends x to
    sum_j (-1)^j x^j, so (xz)^k expands over compositions (j_1..j_k) with
    sum <= degree into x^j_1 z ... x^j_k z with sign (-1)^(sum j).
    """
    lines = ["# hat(delta) up to x-degree %d" % degree]
    for k in range(1, degree + 1):
        for js in product(range(1, degree + 1), repeat=k):
            if sum(js) > degree:
                continue
            coeff = Fraction((-1) ** (k + 1 + sum(js)), k)
            word = ".".join(".".join(["x"] * j + ["z"]) for j in js)
            lines.append("%s %s" % (coeff, word))
    return lines


def make_item(workload: str, index: int) -> dict:
    """Pool item ``index`` of a workload: its matrix and parameters."""
    rng = random.Random("%s:%d" % (workload, index))
    if workload == "chi-wide":
        genera, degree = CHI_WIDE_SHAPE
        spec = CHI_WIDE_SPECS[index % len(CHI_WIDE_SPECS)]
        return {"matrix": random_matrix(rng, genera), "genera": list(genera),
                "degree": degree, "f": spec}
    if workload == "torsion":
        genera, degree = TORSION_SHAPES[index % len(TORSION_SHAPES)]
        return {"matrix": random_matrix(rng, genera), "genera": list(genera),
                "degree": degree}
    if workload == "duality":
        genera, degree = DUALITY_SHAPES[index % len(DUALITY_SHAPES)]
        return {"matrix": random_matrix(rng, genera), "genera": list(genera),
                "degree": degree, "f": "mono:" + ".".join(random_bi_word(rng, degree))}
    if workload == "selfcheck":
        return {"selfcheck_seed": SELFCHECK_SEEDS[index], "degree": SELFCHECK_DEGREE}
    raise ValueError("unknown workload %r" % workload)


def write_inputs(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write one pass of inputs for ``seed``; return its op records in order.

    The seed draws the order of the pool items.  An op record holds the
    item id, n, genera, degree, f spec, matrix path and CLI argv (none for
    the library-level duality op); the records, with file names for paths,
    are also written to ops.json.
    """
    rng = random.Random(seed)
    order = list(range(POOL_SIZE[workload]))
    rng.shuffle(order)
    os.makedirs(workdir, exist_ok=True)
    hat_path = os.path.join(workdir, HAT_DELTA_FILE)
    if workload == "chi-wide":
        with open(hat_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(hat_delta_lines(CHI_WIDE_SHAPE[1])) + "\n")
    ops = []
    for index in order:
        item = make_item(workload, index)
        key = item.get("selfcheck_seed", index)
        op = {"id": "%s:%d" % (workload, key), "degree": item["degree"]}
        if "matrix" in item:
            path = os.path.join(workdir, "m%03d.json" % index)
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(item["matrix"], handle)
            op.update(n=len(item["genera"]), genera=item["genera"], matrix=path)
        degree = str(item["degree"])
        if workload == "chi-wide":
            op["f"] = "list:" + HAT_DELTA_FILE if item["f"] == "list" else item["f"]
            spec = "list:" + hat_path if item["f"] == "list" else item["f"]
            op["argv"] = ["chi", op["matrix"], "--f", spec, "--degree", degree]
        elif workload == "torsion":
            op["argv"] = ["torsion", op["matrix"], "--degree", degree]
        elif workload == "duality":
            op["f"] = item["f"]
        else:
            op["argv"] = ["selfcheck", "--seed", str(item["selfcheck_seed"]), "--degree", degree]
        ops.append(op)
    manifest = [
        {key: os.path.basename(value) if key == "matrix" else value
         for key, value in op.items() if key != "argv"}
        for op in ops
    ]
    with open(os.path.join(workdir, "ops.json"), "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
    return ops
