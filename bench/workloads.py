"""The benchmark's workloads: which `liebialg` commands each one runs, and why.

A *command* is one `liebialg` invocation, given as its argument list without
`--json`.  A *job* is the tuple of commands whose time is one sample of
`job_p50_s`.  A *unit* is the list of jobs the worker runs between two looks
at the clock: one job on `verify-o4` and `hopf-o6`, one pass over the pool on
`classical-cli`.  Traced and untraced units alternate in a traced run.

Every command that has an order passes `--order` explicitly, so an inherited
`LIEBIALG_ORDER` cannot change a workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VERIFY_ORDER = 4
HOPF_ORDER = 6

# Every packaged r-matrix table; all of them live on the Schrodinger algebra.
RMATRIX_TABLES = (
    "d_primitive.rmat", "galilei_family.rmat", "galilei_nonstandard.rmat",
    "galilei_standard.rmat", "general.rmat", "gl2_family.rmat",
    "h_primitive_nonstandard.rmat", "h_primitive_standard.rmat",
    "hstd_deformation.rmat", "oscillator_family.rmat", "p_primitive.rmat",
)

_GENERAL_ZERO = ",".join(f"{p}=0" for p in (
    "a1", "a2", "a3", "a4", "a5", "a6", "b1", "b2", "b3", "b4", "b5", "b6",
    "c3"))

# (table, point, on the constraint variety?)  A point off the variety is a
# correct exit 1 with a failed `point-satisfies-constraints` check.
CLASSIFY_POINTS = (
    ("d_primitive.rmat", "c2=0", True),
    ("d_primitive.rmat", "c1=0,c2=1", True),
    ("p_primitive.rmat", "a1=1,a3=0,a4=0,a5=2,b3=1/2,c1=0", True),
    ("p_primitive.rmat", "a1=1,a3=2,a4=3,a5=0,b3=1,c1=1/2", False),
    ("general.rmat", "c1=1,c2=0," + _GENERAL_ZERO, True),
    ("general.rmat", "c1=1,c2=1/2," + _GENERAL_ZERO, True),
    ("general.rmat", "c1=1,c2=2,c3=-1,a1=1/3,a2=0,a3=1,a4=0,a5=0,a6=0,"
                     "b1=0,b2=0,b3=0,b4=0,b5=0,b6=1", False),
    ("gl2_family.rmat", "a=1,am=1,ap=-1,b=1,bm=-1,bp=-1,c2=1/2", True),
)

EMBEDDINGS = (
    ("D,P,K,M", "oscillator_target.delta", "oscillator_embedding.map"),
    ("D,H,C,M", "gl2_target.delta", "gl2_embedding.map"),
    ("K,H,P,M", "galilei_target.delta", "galilei_embedding.map"),
)

SKLYANIN_FAMILIES = (
    "general", "d-primitive", "p-primitive", "h-primitive-standard",
    "h-primitive-nonstandard", "oscillator", "gl2", "galilei",
    "hstd-deformation",
)

# Commands whose correct result the program does not give at the commit the
# reference was recorded at.  They stay in the pool and count as failed jobs;
# their expected result is exit 0 with every check ok, and they have no byte
# reference.  `sklyanin.linear_part` rebuilds each coefficient without the
# invertible-symbol context, so this command prints the table and then exits
# 1 with "negative power of non-invertible symbol 'c2'".
KNOWN_DEFECTS = (
    ("sklyanin", "--family", "h-primitive-standard"),
)


def classical_pool():
    """The fixed pool of short commands behind `classical-cli`."""
    pool = []
    for cmd in ("delta", "schouten", "classify", "cojacobi"):
        for table in RMATRIX_TABLES:
            pool.append((cmd, "--r", table))
    pool.append(("cocycle-solve",))
    pool.append(("cojacobi",))
    for table, point, _ in CLASSIFY_POINTS:
        pool.append(("classify", "--r", table, "--at", point))
    for sub, target, mapping in EMBEDDINGS:
        pool.append(("embed", "--sub", sub, "--target", target,
                      "--map", mapping))
    for fam in SKLYANIN_FAMILIES:
        pool.append(("sklyanin", "--family", fam))
    return tuple(pool)


VERIFY_JOB = (("verify", "--order", str(VERIFY_ORDER)),)
HOPF_JOB = (("hopf-check", "--case", "ucc", "--order", str(HOPF_ORDER)),
            ("hopf-check", "--case", "uac", "--order", str(HOPF_ORDER)))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str          # why it was chosen
    roadmap: str      # the ROADMAP item it shows or controls
    noise: str        # spread seen at the commit the reference was taken at

    def units(self, seed):
        """Endless sequence of units; each unit is a list of jobs."""
        if self.name == "classical-cli":
            rng = random.Random(seed)
            pool = [(cmd,) for cmd in classical_pool()]
            while True:
                rng.shuffle(pool)
                yield list(pool)
        job = VERIFY_JOB if self.name == "verify-o4" else HOPF_JOB
        while True:
            yield [job]


WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-o4",
        why="the paper's reproduction as users run it: `verify --order 4` "
            "back to back; span_equal (18 calls, 364 solve_linear) is about "
            "half of each job, the Hopf layer a quarter, sklyanin 7 %",
        roadmap="shows item 2 (rank-based span_equal); criterion 11 also "
                "shows item 3 (truncated Hopf series)",
        noise="on a shared 2-core VM: wall time 8-10 % across processes; "
              "raw CPU time up to 28 % across runs; scaled time 2-3 %"),
    Workload(
        "hopf-o6",
        why="`hopf-check` on ucc then uac at order 6 back to back: nearly "
            "all work in hopfdeform, a small (ucc, 314 nf-cache entries) and "
            "a large (uac, 6473 entries, 60 MB RSS) working set; no span_equal "
            "or rref call",
        roadmap="target of item 3; control for item 2 (must stay flat)",
        noise="on a shared 2-core VM: up to 15 % on the first job of a "
              "process; raw CPU time up to 36 % across runs; scaled time "
              "still 17 %, so it is not in BENCHMARK.json"),
    Workload(
        "classical-cli",
        why="many short commands (5 ms to 0.5 s) where parsing and "
            "per-command set-up show; rref on the large co-Jacobi matrices "
            "via span_rank; no span_equal and no hopfdeform call; each pass "
            "is a seed-chosen permutation of the pool",
        roadmap="control for item 3 (Hopf layer never runs, must stay "
                "flat); shows the elimination half of item 2 and item 4's "
                "CLI paths",
        noise="on a shared 2-core VM: raw CPU time 21 % across runs while "
              "the machine's speed drifted; scaled time 4-5 %"),
)}


def all_commands():
    """Every command of every workload, in a fixed order."""
    out = list(VERIFY_JOB) + list(HOPF_JOB) + list(classical_pool())
    return tuple(out)
