"""One count rule: every public n, t, k, kmax, level and nvars is a positive int.

NaN, infinity, fractions, booleans, 0 and -1 each raise ValueError from the
library, and 0 and -1 in any integer flag make the command line exit 2.
"""

from functools import partial

import pytest

from pathideal import (
    IrreducibleComponent,
    Monomial,
    MonomialIdeal,
    VarPrime,
    classify,
    complement_components,
    empirical_astab,
    ind_ideal,
    independent_sets,
    intersect_components,
    parity_complement_checks,
    persistence_scan,
    predicted_ass,
    predicted_astab,
    predicted_decomposition_2t,
    predicted_ntf,
    predicted_stable_set,
    verify_cell,
    verify_witness,
    witness_monomial,
)
from pathideal.cli import main

NON_COUNTS = [float("nan"), float("inf"), 2.5, True, 0, -1]

PRIME = VarPrime(5, (1, 2, 3))
WITNESS = witness_monomial(5, 2, 1, PRIME)

# (name, callable, valid arguments, positions of the counts among them)
CALLS = [
    ("classify", classify, (5, 2), (0, 1)),
    ("independent_sets", independent_sets, (5, 2), (0, 1)),
    ("ind_ideal", ind_ideal, (5, 2), (0, 1)),
    ("predicted_ass", predicted_ass, (5, 2, 2), (0, 1, 2)),
    ("predicted_astab", predicted_astab, (5, 2), (0, 1)),
    ("predicted_stable_set", predicted_stable_set, (5, 2), (0, 1)),
    ("predicted_ntf", predicted_ntf, (5, 2), (0, 1)),
    ("predicted_decomposition_2t", predicted_decomposition_2t, (2, 2), (0, 1)),
    ("witness_monomial", witness_monomial, (5, 2, 1, PRIME), (0, 1, 2)),
    ("VarPrime", VarPrime, (1, (1,)), (0,)),
    ("IrreducibleComponent", IrreducibleComponent, (1, ((1, 2),)), (0,)),
    # with the power given, k is read by nothing but its own check
    (
        "verify_witness",
        partial(verify_witness, power=ind_ideal(5, 2)),
        (ind_ideal(5, 2), 1, WITNESS, PRIME),
        (1,),
    ),
    (
        "intersect_components",
        intersect_components,
        ([IrreducibleComponent(1, ((1, 2),))], 1),
        (1,),
    ),
    ("MonomialIdeal", MonomialIdeal, (1,), (0,)),
    ("MonomialIdeal.power", ind_ideal(5, 2).power, (1,), (0,)),
    ("Monomial.one", Monomial.one, (1,), (0,)),
    ("Monomial.variable", Monomial.variable, (2, 3), (0, 1)),
    ("Monomial.from_support", Monomial.from_support, ((), 1), (1,)),
    (
        "Monomial.from_support-index",
        lambda index, nvars: Monomial.from_support([index], nvars),
        (2, 3),
        (0,),
    ),
    ("Monomial.parse", Monomial.parse, ("1", 1), (1,)),
    ("complement_components", complement_components, (1, VarPrime(1, (1,))), (0,)),
    ("parity_complement_checks", parity_complement_checks, (5, 2, PRIME, 1), (0, 1, 3)),
    ("verify_cell", verify_cell, (5, 2, 2), (0, 1, 2)),
    ("persistence_scan", persistence_scan, (5, 2, 2), (0, 1, 2)),
    ("empirical_astab", empirical_astab, (5, 2, 2), (0, 1, 2)),
]

ROWS = [
    pytest.param(function, args, position, id=f"{name}-{position}")
    for name, function, args, positions in CALLS
    for position in positions
]


@pytest.mark.parametrize("function, args", [c[1:3] for c in CALLS], ids=[c[0] for c in CALLS])
def test_valid_counts_accepted(function, args):
    # each row's base call succeeds, so a ValueError below comes from the count alone
    function(*args)


@pytest.mark.parametrize("bad", NON_COUNTS, ids=repr)
@pytest.mark.parametrize("function, args, position", ROWS)
def test_non_counts_rejected(function, args, position, bad):
    args = list(args)
    args[position] = bad
    with pytest.raises(ValueError):
        function(*args)


# (subcommand, its integer flags with valid values); 5, 2 is a nonzero cell,
# 3, 3 a zero one, which some commands answer before doing any work
COMMANDS = [
    ("gen", {"--n": "5", "--t": "2"}),
    ("predict", {"--n": "5", "--t": "2", "--k": "2"}),
    ("decompose", {"--n": "5", "--t": "2", "--k": "2"}),
    ("ass", {"--n": "5", "--t": "2", "--k": "2"}),
    ("persistence", {"--n": "5", "--t": "2", "--kmax": "2"}),
    ("astab", {"--n": "5", "--t": "2", "--kmax": "2"}),
]

CLI_ROWS = [
    pytest.param(command, {**flags, **cell}, flag, id=f"{command}{flag}-{label}")
    for command, flags in COMMANDS
    for label, cell in (("nonzero", {}), ("zero", {"--n": "3", "--t": "3"}))
    for flag in flags
]


@pytest.mark.parametrize("bad", ["0", "-1"])
@pytest.mark.parametrize("command, flags, flag", CLI_ROWS)
def test_cli_non_counts_exit_two(command, flags, flag, bad, capsys):
    argv = [command]
    for name, value in {**flags, flag: bad}.items():
        argv += [name, value]
    assert main(argv) == 2
    assert capsys.readouterr().out == ""
