"""The value semantics of the six record types, what importing the package loads,
and that every module of the package reads each name it imports.

Each row pins one type as its dataclass definition behaved: the repr, `==`
and `hash` over the compared fields, refusal of assignment and deletion on
the frozen types, pickle and deepcopy round trips, and the constructor's
parameter names and defaults.
"""

import ast
import copy
import inspect
import pickle
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import pathideal
from pathideal import (
    AstabResult,
    IrreducibleComponent,
    PathCase,
    VarPrime,
    VerificationReport,
    WitnessCheck,
)
from pathideal.verify import ScanResult

PRIME = VarPrime(3, (1, 3))
CHECK = WitnessCheck(PRIME, False, "colon too big")
REPORT_FIELDS = dict(
    n=3,
    t=2,
    k=1,
    case=PathCase.CASE_2T_MINUS_1,
    method="decomposition",
    verdict="PASS",
    predicted_count=1,
    computed_count=1,
    missing=(PRIME,),
    extra=(),
    persistence=True,
    one_sided=False,
    witnesses=(CHECK,),
    wall_time_ms=1.5,
    computed_primes=frozenset({PRIME}),
)
REPORT_REPR = (
    "VerificationReport(n=3, t=2, k=1, case=<PathCase.CASE_2T_MINUS_1: 'CASE_2T_MINUS_1'>, "
    "method='decomposition', verdict='PASS', predicted_count=1, computed_count=1, "
    "missing=(VarPrime(nvars=3, vars=(1, 3)),), extra=(), persistence=True, one_sided=False, "
    "witnesses=(WitnessCheck(prime=VarPrime(nvars=3, vars=(1, 3)), ok=False, "
    "reason='colon too big'),), wall_time_ms=1.5)"
)
REPORT_DEFAULTS = dict(
    computed_count=None,
    missing=(),
    extra=(),
    persistence=None,
    one_sided=False,
    witnesses=(),
    wall_time_ms=None,
    computed_primes=None,
)
NO_DEFAULT = inspect.Parameter.empty

# (type, field values in constructor order, the same record with its last compared
# field changed, repr, frozen, defaults of the parameters that have one)
ROWS = [
    pytest.param(
        VarPrime,
        dict(nvars=3, vars=(1, 3)),
        VarPrime(3, (1, 2)),
        "VarPrime(nvars=3, vars=(1, 3))",
        True,
        {},
        id="VarPrime",
    ),
    pytest.param(
        IrreducibleComponent,
        dict(nvars=3, powers=((1, 2), (3, 1))),
        IrreducibleComponent(3, ((1, 2), (3, 2))),
        "IrreducibleComponent(nvars=3, powers=((1, 2), (3, 1)))",
        True,
        {},
        id="IrreducibleComponent",
    ),
    pytest.param(
        WitnessCheck,
        dict(prime=PRIME, ok=False, reason="colon too big"),
        WitnessCheck(PRIME, False, "colon too small"),
        "WitnessCheck(prime=VarPrime(nvars=3, vars=(1, 3)), ok=False, reason='colon too big')",
        True,
        dict(reason=None),
        id="WitnessCheck",
    ),
    pytest.param(
        VerificationReport,
        REPORT_FIELDS,
        VerificationReport(**{**REPORT_FIELDS, "wall_time_ms": 2.5}),
        REPORT_REPR,
        False,
        REPORT_DEFAULTS,
        id="VerificationReport",
    ),
    pytest.param(
        AstabResult,
        dict(n=7, t=3, kmax=5, observed=3, predicted=3, chain_sizes=(10, 16, 17, 17, 17)),
        AstabResult(7, 3, 5, 3, 3, (10, 16, 17, 17, None)),
        "AstabResult(n=7, t=3, kmax=5, observed=3, predicted=3, "
        "chain_sizes=(10, 16, 17, 17, 17))",
        True,
        {},
        id="AstabResult",
    ),
    pytest.param(
        ScanResult,
        dict(config={"method": "decomposition"}, reports=[], exit_code=0, structured="{}\n",
             table="pathideal\n"),
        ScanResult({"method": "decomposition"}, [], 0, "{}\n", "pathideal 0.1.0\n"),
        "ScanResult(config={'method': 'decomposition'}, reports=[], exit_code=0)",
        False,
        dict(structured="", table=""),
        id="ScanResult",
    ),
]


def fields_of(record, names):
    return {name: getattr(record, name) for name in names}


@pytest.mark.parametrize("cls, values, different, text, frozen, defaults", ROWS)
def test_value_semantics(cls, values, different, text, frozen, defaults):
    names = tuple(values)
    record, twin = cls(*values.values()), cls(**values)
    assert fields_of(record, names) == values
    assert repr(record) == text

    # equality over the compared fields, only against the same type
    assert record == twin and not record != twin
    assert record != different and not record == different
    assert record != SimpleNamespace(**values)
    if frozen:
        assert hash(record) == hash(twin) == hash(tuple(values.values()))
    else:
        with pytest.raises(TypeError):
            hash(record)

    # frozen types refuse both assignment and deletion; the others take assignment
    first = names[0]
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, first, values[first])
        with pytest.raises(AttributeError):
            delattr(record, first)
        assert fields_of(record, names) == values
    else:
        setattr(twin, first, values[first])
        assert twin == record

    # every field survives a pickle round trip and a deep copy
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record
        assert fields_of(copied, names) == values

    parameters = inspect.signature(cls).parameters.values()
    assert [p.name for p in parameters] == list(names)
    assert {p.name: p.default for p in parameters if p.default is not NO_DEFAULT} == defaults
    assert cls.__match_args__ == names


def test_report_ignores_computed_primes_in_equality():
    plain = VerificationReport(**{**REPORT_FIELDS, "computed_primes": None})
    assert plain == VerificationReport(**REPORT_FIELDS)
    assert plain != VerificationReport(**{**REPORT_FIELDS, "verdict": "FAIL"})


def test_cold_import_loads_no_dataclass_machinery():
    # a fresh isolated interpreter, importing the package from this tree
    source = str(Path(pathideal.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {source!r}); import pathideal.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_every_imported_name_is_read():
    # a module reads every name it imports; `__init__` re-exports through `__all__`,
    # which counts as a read, and `from __future__` imports are compiler switches
    unread = []
    for path in sorted(Path(pathideal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if path.name == "__init__.py":
            read |= set(pathideal.__all__)
        unread += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unread == []
