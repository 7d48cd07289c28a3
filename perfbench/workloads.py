"""Request grids and seeded request lists of the two workloads.

A *cell* is one point of a workload's grid: one CLI argv, or one library
task of the session.  Every cell has a frozen reference (``reference.json``)
holding the SHA-256 of its output and its expected exit code.

A *pass* is one seeded draw from a workload's slots.  A slot is a list of
candidate cells; the seed picks one candidate per slot and then shuffles
the order.  Candidates of one slot cost the same to within about 15% at
this commit, and every pass has the same slots, so passes drawn with
different seeds hold the same mix of cheap and dear requests: the seed
changes which cells, families, formats and degrees are asked for, not
where the median or the tail of the latencies falls.  The cost figures
quoted below are single subprocess runs on a 2-core x86-64 virtual
machine, Python 3.11.7.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# (id, catalog name, CLI parameters).  "heavy" families have a non-identity
# h, so every Sheffer or Sheffer-Appell request runs a compositional inverse.
FAMILIES = {
    "laguerre-0": ("laguerre", {"lambda": "0"}),
    "laguerre-5/2": ("laguerre", {"lambda": "5/2"}),
    "log-assoc": ("log-assoc", {}),
    "hermite": ("hermite", {}),
    "miller-lee-1": ("miller-lee", {"m": "1"}),
    "bernoulli": ("bernoulli", {}),
}
HEAVY = ("laguerre-0", "laguerre-5/2", "log-assoc")
LIGHT = ("hermite", "miller-lee-1", "bernoulli")
LAGUERRE = ("laguerre-0", "laguerre-5/2")

KINDS = ("sheffer-appell", "sheffer", "appell")
NON_APPELL = ("sheffer-appell", "sheffer")
FORMATS = ("json", "csv", "latex")
LABELS = ("2.1", "3.1", "3.2", "3.3")
# Theorems 3.2 and 3.3 cost 2-3x theorems 2.1 and 3.1 on heavy families.
DEAR_LABELS = ("3.2", "3.3")

GEN_N = (10, 20, 30, 40)
VERIFY_N = (6, 10, 14)
COEFFS_N = (10, 20, 30)
AUDIT_N = (6, 12)
SESSION_N = (8, 16, 24, 30)
SESSION_ORDER = 32

SETUP_CELL = "families"

# Whole passes per run are fixed from --seconds and these pass times,
# rounded from measurements at the commit that introduced the benchmark
# (the host's speed varied by up to 1.3x while they were taken), so a seed
# and a run length name the same request list on every later commit.
NOMINAL_PASS_SECONDS = {"cli": 20.0, "session": 13.0}

WORKLOADS = tuple(NOMINAL_PASS_SECONDS)


@dataclass(frozen=True)
class Request:
    """One request of a pass: the cell it asks for and its position."""

    workload: str
    cell: str
    pass_index: int


def _family_args(fam: str) -> list[str]:
    name, params = FAMILIES[fam]
    args = ["--family", name]
    for key, value in params.items():
        args += ["--param", f"{key}={value}"]
    return args


def cell_argv(cell: str) -> list[str]:
    """The sheffermat argv of a CLI cell (everything after the program name)."""
    verb, *rest = cell.split("|")
    if verb == "families":
        return ["families", "--format", "json"]
    if verb == "gen":
        fam, kind, n, fmt = rest
        return ["gen", *_family_args(fam), "--n", n, "--kind", kind, "--format", fmt]
    if verb == "verify-all":
        fam, n = rest
        return ["verify", *_family_args(fam), "--n", n, "--all", "--lemma"]
    if verb == "verify-thm":
        fam, label, n = rest
        return ["verify", *_family_args(fam), "--n", n, "--theorem", label]
    if verb == "verify-props":
        (fam,) = rest
        return ["verify", *_family_args(fam), "--properties"]
    if verb == "coeffs":
        fam, label, n = rest
        return ["coeffs", *_family_args(fam), "--theorem", label, "--n", n]
    if verb == "audit":
        (n,) = rest
        return ["audit", "--n", n]
    raise ValueError(f"not a CLI cell: {cell!r}")


def task_of(cell: str) -> tuple[str, str, int]:
    """(family id, kind, n) of a session cell."""
    verb, fam, kind, n = cell.split("|")
    if verb != "task":
        raise ValueError(f"not a session cell: {cell!r}")
    return fam, kind, int(n)


def gen_cell(fam: str, kind: str, n: int, fmt: str) -> str:
    return f"gen|{fam}|{kind}|{n}|{fmt}"


def grid(workload: str) -> list[str]:
    """Every cell of a workload's grid."""
    if workload == "cli":
        cells = [
            gen_cell(f, k, n, fmt)
            for f in FAMILIES
            for k in KINDS
            for n in GEN_N
            for fmt in FORMATS
        ]
        cells += [f"verify-all|{f}|{n}" for f in FAMILIES for n in VERIFY_N]
        cells += [
            f"verify-thm|{f}|{label}|{n}"
            for f in FAMILIES
            for label in LABELS
            for n in VERIFY_N
        ]
        cells += [
            f"coeffs|{f}|{label}|{n}" for f in FAMILIES for label in LABELS for n in COEFFS_N
        ]
        cells += [f"audit|{n}" for n in AUDIT_N]
        cells += [f"verify-props|{f}" for f in FAMILIES]
        return cells
    if workload == "session":
        return [f"task|{f}|{k}|{n}" for f in FAMILIES for k in KINDS for n in SESSION_N]
    raise ValueError(f"unknown workload {workload!r}")


def _gen(fams, kinds, ns) -> list[str]:
    return [gen_cell(f, k, n, fmt) for f in fams for k in kinds for n in ns for fmt in FORMATS]


def _thm(fams, labels, n) -> list[str]:
    return [f"verify-thm|{f}|{label}|{n}" for f in fams for label in labels]


def _coeffs(fams, labels, ns) -> list[str]:
    return [f"coeffs|{f}|{label}|{n}" for f in fams for label in labels for n in ns]


def _cli_slots() -> list[list[str]]:
    """Forty-three slots, about 20 s a pass: 16 start-up-bound requests,
    12 of 0.2-0.4 s, 8 of 0.4-0.9 s and 7 of 1-2.6 s.  The median falls
    in the middle of the second group, and the tail (rank N-10) among the
    requests of the last.  Heavy families at n=40 (4-7.5 s each) and
    verify --all --lemma of a heavy family at n=14 (3-4.3 s) stay in the
    grid but out of the passes: one of them would take a fifth of a pass."""
    slots: list[list[str]] = []
    # Start-up bound, 0.09-0.21 s.
    slots += [_gen(FAMILIES, ["appell"], GEN_N)] * 6
    slots += [_gen(LIGHT, NON_APPELL, [10, 20])] * 4
    slots += [_coeffs(FAMILIES, LABELS, [10])] * 2
    slots += [_coeffs(LIGHT, LABELS, [20])]
    slots += [_thm(LIGHT, LABELS, 6)] * 2
    slots += [["audit|6"]]
    # 0.2-0.4 s.
    slots += [_thm(LIGHT, LABELS, 10)] * 3
    slots += [[f"verify-all|{f}|6" for f in FAMILIES]] * 3
    slots += [_gen(LIGHT, NON_APPELL, [30])] * 3
    slots += [_thm(LIGHT, LABELS, 14)] * 2
    slots += [["audit|12"]]
    # 0.36-0.9 s: series work of heavy families at n=20, light ones at 40.
    slots += [_gen(HEAVY, NON_APPELL, [20])] * 3
    slots += [_gen(LIGHT, NON_APPELL, [40])] * 2
    slots += [_coeffs(LAGUERRE, DEAR_LABELS, [30])]
    slots += [_thm(HEAVY, DEAR_LABELS, 10)]
    slots += [[f"verify-all|{f}|10" for f in LIGHT]]
    # 1-2.6 s: lemma checks, property suites and the largest series.
    # The property suite costs 30% less on miller-lee and bernoulli, and
    # verify --all --lemma at n=14 50% more on bernoulli, so those are left
    # out of these slots.
    slots += [[f"verify-all|{f}|10" for f in LAGUERRE]] * 2
    slots += [[f"verify-props|{f}" for f in (*HEAVY, "hermite")]] * 2
    slots += [["verify-all|hermite|14", "verify-all|miller-lee-1|14"]]
    slots += [_thm(LAGUERRE, DEAR_LABELS, 14)]
    slots += [_gen(["log-assoc"], NON_APPELL, [30])]
    return slots


def _session_pass(pass_index: int, rng: random.Random) -> list[str]:
    """Thirteen tasks on the light pairs, plus two on a heavy pair in two
    passes out of three: about 13 s a pass.

    A light pair's task costs about the same whatever n is: miller-lee
    0.35-0.55 s, hermite 0.7-1.05 s, bernoulli 1.1-1.5 s.  Three
    miller-lee, six hermite and four bernoulli tasks put the median in the
    middle of the hermite ones and the tail (rank N-10) in the middle of
    the bernoulli ones.  Hermite studies each kind twice, as kinds differ
    by up to 20% on it.  The two sheffer-appell tasks of a heavy pair come
    in passes 0 and 1 of every three, laguerre-0 and then laguerre-5/2:
    the first task computes the pair's generating function (5-6 s), the
    second finds it cached (2.3-3.3 s).  Every task but the first on each
    pair revisits it.
    """
    def task(fam: str, kind: str) -> str:
        return f"task|{fam}|{kind}|{rng.choice(SESSION_N)}"

    tasks = [task("miller-lee-1", rng.choice(KINDS)) for _ in range(3)]
    tasks += [task("hermite", kind) for kind in KINDS * 2]
    tasks += [task("bernoulli", rng.choice(KINDS)) for _ in range(4)]
    if pass_index % 3 < 2:
        heavy = LAGUERRE[pass_index % 3]
        tasks += [f"task|{heavy}|sheffer-appell|{n}" for n in rng.sample(SESSION_N, 2)]
    rng.shuffle(tasks)
    return tasks


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_SECONDS[workload]))


def draw_pass(workload: str, seed: int, pass_index: int) -> list[str]:
    """The cells of one pass, in the order they are requested."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    if workload == "session":
        return _session_pass(pass_index, rng)
    cells = [rng.choice(slot) for slot in _cli_slots()]
    rng.shuffle(cells)
    return cells


def request_list(workload: str, seed: int, seconds: float) -> list[Request]:
    """The whole request list of one run: a fixed number of seeded passes."""
    if workload not in NOMINAL_PASS_SECONDS:
        raise ValueError(f"unknown workload {workload!r}")
    return [
        Request(workload, cell, p)
        for p in range(passes_for(workload, seconds))
        for cell in draw_pass(workload, seed, p)
    ]
