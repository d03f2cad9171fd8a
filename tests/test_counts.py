"""One rule per input bound, each decided in one module.

One count rule: every public n, t, k, kmax, level and nvars is a positive int.
NaN, infinity, fractions, booleans, 0 and -1 each raise ValueError from the
library, named in the message, and 0 and -1 in any integer flag make the
command line exit 2 with that message.  One ring-agreement rule: operands
on different variable counts raise DimensionMismatch.  One time rule, in
`ideal.py`: a deadline is a time.monotonic() instant, so NaN and booleans are
refused, and a chain refuses a bad budget before any cell.  One exponent rule,
in `monomial.py`, for a monomial and a component's pure powers alike.
"""

import ast
import inspect
from functools import partial
from pathlib import Path

import pytest

import pathideal
from pathideal import (
    DimensionMismatch,
    ExponentOverflow,
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
from pathideal.decomposition import associated_primes, irreducible_decomposition
from test_verify import BAD_BUDGETS, BUDGET_RULE

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


# the range rules name the value and its range, not the argument
RANGE_REFUSALS = {
    "index": "variable index {bad!r} out of range [1, 3]",
    "level": "level {bad!r} must be an integer in [1, 2]",
}


@pytest.mark.parametrize("bad", NON_COUNTS, ids=repr)
@pytest.mark.parametrize("function, args, position", ROWS)
def test_non_counts_rejected(function, args, position, bad):
    name = list(inspect.signature(function).parameters)[position]
    args = list(args)
    args[position] = bad
    with pytest.raises(ValueError) as refusal:
        function(*args)
    template = RANGE_REFUSALS.get(name, "{name} must be a positive integer, got {bad!r}")
    assert str(refusal.value) == template.format(name=name, bad=bad)


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
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag[2:]} must be a positive integer, got {bad}\n"


I3 = MonomialIdeal(3, [Monomial((1, 1, 0))])
I4 = MonomialIdeal(4, [Monomial((1, 0, 0, 1))])
M3, M4 = Monomial((1, 0, 1)), Monomial((0, 1, 0, 1))
ON_FOUR = VarPrime(4, (1, 2, 3))

# (name, callable, arguments, the two variable counts the refusal names)
RING_CALLS = [
    ("MonomialIdeal", MonomialIdeal, (3, [M3, M4]), (3, 4)),
    ("MonomialIdeal.equals", I3.equals, (I4,), (3, 4)),
    ("MonomialIdeal.contains", I3.contains, (M4,), (3, 4)),
    ("MonomialIdeal.is_subset", I3.is_subset, (I4,), (3, 4)),
    ("MonomialIdeal.sum", I3.sum, (I4,), (3, 4)),
    ("MonomialIdeal.product", I3.product, (I4,), (3, 4)),
    ("MonomialIdeal.intersect", I3.intersect, (I4,), (3, 4)),
    ("MonomialIdeal.colon_monomial", I3.colon_monomial, (M4,), (3, 4)),
    ("MonomialIdeal.colon_ideal", I3.colon_ideal, (I4,), (3, 4)),
    ("Monomial.mul", M3.mul, (M4,), (3, 4)),
    ("Monomial.divides", M3.divides, (M4,), (3, 4)),
    ("Monomial.gcd", M3.gcd, (M4,), (3, 4)),
    ("Monomial.lcm", M3.lcm, (M4,), (3, 4)),
    ("Monomial.quotient", M3.quotient, (M4,), (3, 4)),
    (
        "intersect_components",
        intersect_components,
        ([IrreducibleComponent(3, ((1, 2),)), IrreducibleComponent(4, ((1, 2),))], 3),
        (3, 4),
    ),
    ("complement_components", complement_components, (3, ON_FOUR), (3, 4)),
    ("parity_complement_checks", parity_complement_checks, (5, 2, ON_FOUR, 1), (5, 4)),
    # u lies outside I^k, so the colon meets the prime's ideal
    ("verify_witness", verify_witness, (ind_ideal(5, 2), 1, WITNESS, ON_FOUR), (5, 4)),
]


@pytest.mark.parametrize(
    "function, args, counts", [c[1:] for c in RING_CALLS], ids=[c[0] for c in RING_CALLS]
)
def test_ring_mismatch_rejected(function, args, counts):
    with pytest.raises(DimensionMismatch) as refusal:
        function(*args)
    assert str(refusal.value) == "operands have {} and {} variables".format(*counts)


# (name, a call taking the deadline); each reaches its first deadline test
DEADLINE_CALLS = [
    ("MonomialIdeal.power", lambda deadline: ind_ideal(5, 2).power(2, deadline=deadline)),
    ("predicted_ass", lambda deadline: predicted_ass(5, 2, 2, deadline=deadline)),
    (
        "irreducible_decomposition",
        lambda deadline: irreducible_decomposition(ind_ideal(5, 2), deadline=deadline),
    ),
    (
        "associated_primes",
        lambda deadline: associated_primes(ind_ideal(5, 2), deadline=deadline),
    ),
]
DEADLINE_ROWS = [pytest.param(call, id=name) for name, call in DEADLINE_CALLS]


@pytest.mark.parametrize("deadline", [float("nan"), True, False], ids=repr)
@pytest.mark.parametrize("call", DEADLINE_ROWS)
def test_non_instant_deadlines_rejected(call, deadline):
    # a NaN deadline once never fired, and True fired as if time had run out
    with pytest.raises(ValueError) as refusal:
        call(deadline)
    assert str(refusal.value) == f"deadline must be a time.monotonic() instant, got {deadline!r}"


@pytest.mark.parametrize("call", DEADLINE_ROWS)
def test_unbounded_deadlines_run_to_the_end(call):
    assert call(float("inf")) == call(None)


@pytest.mark.parametrize("budget", BAD_BUDGETS)
@pytest.mark.parametrize("chain", [persistence_scan, empirical_astab])
@pytest.mark.parametrize("n", [2, 5], ids=["zero", "nonzero"])
def test_chains_refuse_a_bad_budget_on_the_call(chain, n, budget):
    # on the zero cell empirical_astab once raised ZeroIdealError from its prediction first
    with pytest.raises(ValueError) as refusal:
        chain(n, 2, 3, budget_seconds=budget)
    assert str(refusal.value) == f"budget_seconds must be {BUDGET_RULE}"


# (class, exponent, error, message) for a monomial x1^e and a component <x1^e>
EXPONENT_REFUSALS = [
    (Monomial, -1, ValueError, "exponents must be non-negative integers, got -1"),
    (Monomial, True, ValueError, "exponents must be non-negative integers, got True"),
    (Monomial, 1048577, ExponentOverflow, "exponent 1048577 exceeds cap 1048576"),
    (IrreducibleComponent, -1, ValueError, "exponents must be positive integers, got -1"),
    (IrreducibleComponent, True, ValueError, "exponents must be positive integers, got True"),
    (IrreducibleComponent, 1048577, ExponentOverflow, "exponent 1048577 exceeds cap 1048576"),
    (IrreducibleComponent, 0, ValueError, "exponents must be positive integers, got 0"),
]
BUILD = {
    Monomial: lambda e: Monomial((e,)),
    IrreducibleComponent: lambda e: IrreducibleComponent(1, ((1, e),)),
}


@pytest.mark.parametrize(
    "cls, exponent, error, message",
    EXPONENT_REFUSALS,
    ids=[f"{row[0].__name__}-{row[1]!r}" for row in EXPONENT_REFUSALS],
)
def test_bad_exponents_rejected(cls, exponent, error, message):
    with pytest.raises(ValueError) as refusal:
        BUILD[cls](exponent)
    assert type(refusal.value) is error and str(refusal.value) == message


def test_each_input_bound_has_one_owner():
    trees = {
        path.name: ast.parse(path.read_text())
        for path in Path(pathideal.__file__).parent.glob("*.py")
    }
    defined = {
        (name, node.name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
    }
    # the budget rule, its raising form and the deadline test live in ideal.py alone
    for function in ("_is_budget", "_check_budget", "_check_deadline"):
        assert {name for name, defined_name in defined if defined_name == function} == {"ideal.py"}
    readers = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "float_info"
    }
    assert readers == {"ideal.py"}
    # no module imports a private name of the verifier
    private = [
        (name, alias.name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "verify"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    # and both value types refuse a bad exponent through monomial's one exponent rule
    for cls in (Monomial, IrreducibleComponent):
        assert "_pack_checked" in cls.__init__.__code__.co_names, cls
