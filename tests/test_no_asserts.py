"""Package structure: runtime checks survive `python -O`, the public names
resolve, FACTOR_LIMIT is enforced in one place per job, and f's integer
forms are built in one place each."""

import ast
from pathlib import Path

import traceforms.algebra

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "traceforms"


def test_no_assert_statements_in_package():
    assert (PACKAGE / "__init__.py").is_file()
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_algebra_exports_resolve():
    missing = [name for name in traceforms.algebra.__all__ if not hasattr(traceforms.algebra, name)]
    assert missing == []


class _Scoped(ast.NodeVisitor):
    """Collects module.function sites; subclasses decide what is a site."""

    def __init__(self, module: str):
        self.module = module
        self.scope = "<module>"
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer


def _sites(visitor_class, *args) -> list[str]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        visitor = visitor_class(path.stem, *args)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found += visitor.found
    return sorted(found)


class _FactorLimitComparisons(_Scoped):
    """module.function of every comparison with FACTOR_LIMIT as an operand."""

    def visit_Compare(self, node):
        for operand in [node.left, *node.comparators]:
            for sub in ast.walk(operand):
                if getattr(sub, "id", None) == "FACTOR_LIMIT" or getattr(sub, "attr", None) == "FACTOR_LIMIT":
                    self.found.append(f"{self.module}.{self.scope}")
        self.generic_visit(node)


def test_factor_limit_is_compared_only_at_its_guards():
    # is_prime is the one primality guard; factorize and the two input
    # validators check outside input up front.  Any other comparison would
    # be a scattered second guard.
    assert _sites(_FactorLimitComparisons) == [
        "galois.generic_experiment",
        "intmath.factorize",
        "intmath.is_prime",
        "quadform._classes_and_places",  # numerator
        "quadform._classes_and_places",  # denominator
    ]


class _Calls(_Scoped):
    """module.function of every call of the named function."""

    def __init__(self, module: str, callee: str):
        super().__init__(module)
        self.callee = callee

    def visit_Call(self, node):
        if self.callee in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            self.found.append(f"{self.module}.{self.scope}")
        self.generic_visit(node)


def test_integer_model_is_built_in_one_place():
    # f's (primitive integer coefficients, discriminant) pair is built only by
    # modpoly._integer_model; the only other discriminant is is_separable's,
    # which callers reach only after irreducibility has said no
    assert _sites(_Calls, "discriminant") == ["modpoly._integer_model", "poly.is_separable"]
    assert _sites(_Calls, "primitive_integer_coeffs") == ["modpoly._integer_model"]


class _Reads(_Scoped):
    """module.function of every read of the named attribute."""

    def __init__(self, module: str, attribute: str):
        super().__init__(module)
        self.attribute = attribute

    def visit_Attribute(self, node):
        if node.attr == self.attribute:
            self.found.append(f"{self.module}.{self.scope}")
        self.generic_visit(node)


POLY_MODULES = ("poly.", "modpoly.", "irreducibility.", "galois.")  # the Matrix code clears its own


def test_monic_model_is_the_one_integer_form_of_f():
    # the primitive part, Hensel lifting and Newton's power sums all read
    # f's monic integer model; no second rescaling of f exists
    assert _sites(_Calls, "_monic_model") == [
        "irreducibility.is_irreducible_over_rationals",
        "poly._newton_sums",
        "poly.primitive_integer_coeffs",
    ]
    assert _sites(_Calls, "_newton_sums") == [
        "poly.power_traces",
        "poly.trace_moments",
        "traceform.solve_alpha",
    ]
    # clearing a polynomial's denominators: the model clears f's, the Hankel
    # moments clear the traced element's
    denominators = {site for site in _sites(_Reads, "denominator") if site.startswith(POLY_MODULES)}
    assert denominators == {"poly._hankel_moments", "poly._monic_model"}
