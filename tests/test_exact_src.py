"""Float lint over the library source: no module under src/curvehull may
bring a float into its arithmetic by any of the routes below.

It fails on
  - a float or complex literal (1.5, 1e-9, 2j);
  - a call to float or complex;
  - a name taken from math, by import or as math.<name>, other than the
    integer functions lcm, gcd, factorial, comb, isqrt and prod;
  - a call of random, uniform, gauss or triangular on anything.

It is a syntax check, so it cannot see every float.  In particular it
cannot see `/` between two ints (1 / 2 is 0.5): that needs the types of
the operands, which only running the code gives.  The exact-arithmetic
tests of each module cover that route.

A second lint keeps the polynomial representation behind its two modules:
only unipoly and multipoly may name the slot `_ints` or the unchecked
constructor `_trusted`; every other module reads `integer_form()`, `coeffs`
and `terms`.  Only unipoly may name the cache slots `_sqf` and `_sturm` of a
`UniPoly`: every other module goes through `squarefree_decomposition` and
the Sturm routines.  The slots of both types are pinned, so the integer
form stays the only stored state of a polynomial besides those caches.
"""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import pytest

import curvehull

SRC = Path(curvehull.__file__).resolve().parent
INTEGER_MATH = {"lcm", "gcd", "factorial", "comb", "isqrt", "prod"}
FLOAT_DRAWS = {"random", "uniform", "gauss", "triangular"}


def float_uses(tree: ast.AST) -> list:
    """(line, description) of every float route above in the tree."""
    math_aliases = {alias.asname or alias.name
                    for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names if alias.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"from math import {alias.name}")
                      for alias in node.names if alias.name not in INTEGER_MATH]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in math_aliases and node.attr not in INTEGER_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if (isinstance(func, ast.Name) and name in ("float", "complex")
                    or name in FLOAT_DRAWS):
                found.append((node.lineno, f"call of {name}"))
    return sorted(found)


MODULES = sorted(SRC.glob("*.py"))


def test_every_module_is_seen():
    assert {p.stem for p in MODULES} >= {"cli", "diagonal", "hull", "linalg", "lmi",
                                         "multipoly", "rays", "schur", "unipoly"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_float_in_the_source(path):
    assert float_uses(ast.parse(path.read_text(), filename=str(path))) == []


@pytest.mark.parametrize("source, expected", [
    ("x = 0.5", [(1, "literal 0.5")]),
    ("x = 1e-9", [(1, "literal 1e-09")]),
    ("x = 2j", [(1, "literal 2j")]),
    ("x = float(y)", [(1, "call of float")]),
    ("x = complex(1, 2)", [(1, "call of complex")]),
    ("from math import sqrt", [(1, "from math import sqrt")]),
    ("from math import *", [(1, "from math import *")]),
    ("import math\nx = math.log(2)", [(2, "math.log")]),
    ("import math as m\nx = m.pi", [(2, "math.pi")]),
    ("x = rng.random()", [(1, "call of random")]),
    ("x = random.uniform(0, 1)", [(1, "call of uniform")]),
    ("x = gauss(0, 1)", [(1, "call of gauss")]),
    ("x = rng.triangular()", [(1, "call of triangular")]),
])
def test_each_route_is_caught(source, expected):
    assert float_uses(ast.parse(source)) == expected


@pytest.mark.parametrize("source", [
    "from math import factorial, lcm, gcd, comb, isqrt, prod",
    "import math\nx = math.lcm(2, 3) + math.factorial(4)",
    "x = Fraction(1, 2) + 3",
    "x = rng.randint(0, 9)",
    "x = random.Random(0)",
    "x = True",
])
def test_exact_code_passes(source):
    assert float_uses(ast.parse(source)) == []


def public_definitions():
    """(name, object) of every public function, class and method of every
    curvehull module; a property stands for its getter."""
    for path in MODULES:
        module = importlib.import_module(f"curvehull.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{path.stem}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    func = member.fget if isinstance(member, property) else getattr(
                        member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(func):
                        yield f"{path.stem}.{name}.{attr}", func


def test_every_public_annotation_resolves():
    unresolved = []
    for name, obj in public_definitions():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []


# each private name and the modules that may name it
OWNERS = {"_ints": {"unipoly", "multipoly"}, "_trusted": {"unipoly", "multipoly"},
          "_sqf": {"unipoly"}, "_sturm": {"unipoly"}}


def representation_uses(tree: ast.AST, module: str = "") -> list:
    """(line, name) of every attribute, name, imported name or string
    constant in the tree that is one of the OWNERS names and that the
    named module may not use."""
    found = []
    for node in ast.walk(tree):
        name = (node.attr if isinstance(node, ast.Attribute)
                else node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias)
                else node.value if isinstance(node, ast.Constant) else None)
        if isinstance(name, str) and name in OWNERS and module not in OWNERS[name]:
            found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_representation_stays_in_its_two_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert representation_uses(tree, path.stem) == []


@pytest.mark.parametrize("source, expected", [
    ("nums, den = p._ints", [(1, "_ints")]),
    ("nums = p._ints if q._trusted else None", [(1, "_ints"), (1, "_trusted")]),
    ("from .multipoly import _trusted", [(1, "_trusted")]),
    ("q = MultiPoly._trusted(2, {}, 1)", [(1, "_trusted")]),
    ("built = hasattr(p, '_ints')", [(1, "_ints")]),
    ("_ints = 1", [(1, "_ints")]),
    ("unit, layers = p._sqf", [(1, "_sqf")]),
])
def test_each_representation_use_is_caught(source, expected):
    assert representation_uses(ast.parse(source)) == expected


def test_a_cache_slot_is_caught_in_multipoly():
    tree = ast.parse("tail = q._sturm\nnums, den = q._ints")
    assert representation_uses(tree, "multipoly") == [(1, "_sturm")]


def test_the_integer_form_is_the_only_stored_state():
    """A cached coefficient view would need a slot of its own."""
    from curvehull.multipoly import MultiPoly
    from curvehull.unipoly import UniPoly, _Poly
    assert _Poly.__slots__ == ()
    assert UniPoly.__slots__ == ("_ints", "_sqf", "_sturm")
    assert MultiPoly.__slots__ == ("arity", "_ints")


@pytest.mark.parametrize("source", [
    "nums, den = p.integer_form()",
    "c = p.coeffs[0] + q.terms[e]",
    "from .unipoly import _over_lcm, _built",
    "x = '_ints are private'",
    "chain = _sturm_chain_of(q)",
])
def test_public_reads_pass(source):
    assert representation_uses(ast.parse(source)) == []
