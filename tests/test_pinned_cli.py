"""Bytes of the command line for check and derive, pinned so that a rewrite of
the verb registries cannot change them: stdout, stderr and the exit code of
`check` (plain and --json) on every slug's holding case, of `derive` on every
construction, and of the arity, kind and representation-kind errors.

Each input document is written to its own file and the CLI runs in process.
The expected values live in pinned_cli.json and were recorded from the
implementation that wrapped every slug and construction in its own function.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from hombench import cli, serialize_documents

from test_checks import HOLDING_CASES, _resolve

PINNED = Path(__file__).with_name("pinned_cli.json")

DERIVE_CASES = (
    ("canonical-smatrix", ("nilpotent_dendriform",)),
    ("coadjoint", ("nilpotent_algebra",)),
    ("coboundary-cocycle", ("nilpotent_algebra", "nilpotent_smatrix")),
    ("coboundary-rep", ("nilpotent_algebra",)),
    ("dendriform-from-hessian", ("nilpotent_algebra", "nilpotent_hessian_form")),
    ("double-lie", ("nilpotent_lie_pair",)),
    ("double-pre-lie", ("nilpotent_coadjoint_pair",)),
    ("dual-product", ("nilpotent_algebra", "smatrix_11")),
    ("dual-rep", ("nilpotent_regular",)),
    ("semidirect", ("nilpotent_regular",)),
    ("semidirect-smatrix", ("mixed_action_operator",)),
    ("standard-manin", ("nilpotent_algebra", "zero_dual")),
    ("standardize-manin", ("nilpotent_manin",)),
    ("sub-adjacent", ("scaling_algebra",)),
    ("triangular-bialgebra", ("nilpotent_algebra", "nilpotent_smatrix")),
)

ERROR_CASES = (
    ("check", "s-identity", ("nilpotent_algebra",)),                         # arity
    ("derive", "sub-adjacent", ("nilpotent_algebra", "nilpotent_smatrix")),  # arity
    ("check", "double-lie-equiv", ("nilpotent_lie_pair", "nilpotent_lie_pair")),
    ("check", "s-identity", ("nilpotent_smatrix", "nilpotent_algebra")),     # kind
    ("check", "hessian-dendriform", ("nilpotent_algebra", "nilpotent_smatrix")),
    ("derive", "double-lie", ("nilpotent_coadjoint_pair",)),
    ("derive", "standard-manin", ("nilpotent_algebra", "nilpotent_smatrix")),
    ("derive", "dual-rep", ("scaling_adjoint",)),                            # Lie-side rep
    ("derive", "semidirect", ("scaling_adjoint",)),
)

CASES = ([("check", slug, picks, ()) for slug, picks in HOLDING_CASES] +
         [("check", slug, picks, ("--json",)) for slug, picks in HOLDING_CASES] +
         [("derive", name, picks, ()) for name, picks in DERIVE_CASES] +
         [(verb, name, picks, ()) for verb, name, picks in ERROR_CASES])


def case_key(case):
    verb, name, picks, flags = case
    return " ".join((verb, name) + tuple(picks) + tuple(flags))


def run_case(case, directory):
    """Stdout, stderr and exit code of the CLI on the case's documents."""
    verb, name, picks, flags = case
    paths = []
    for index, doc in enumerate(_resolve(picks)):
        path = Path(directory) / ("%d.txt" % index)
        path.write_text(serialize_documents([doc]), encoding="utf-8")
        paths.append(str(path))
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([verb, name] + paths + list(flags))
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def test_every_construction_is_pinned():
    from hombench import CONSTRUCTIONS
    assert {name for name, _ in DERIVE_CASES} == set(CONSTRUCTIONS)


@pytest.mark.parametrize("case", CASES, ids=case_key)
def test_cli_bytes_match_the_pins(case, tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    assert run_case(case, tmp_path) == pinned[case_key(case)]
