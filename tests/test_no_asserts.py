"""Package structure: runtime checks survive `python -O`, the public names
resolve, FACTOR_LIMIT is enforced in one place per job, f's integer forms
are built in one place each, and the power-sum Hankel stays in integers."""

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


class _Defs(_Scoped):
    """module.function of every definition of the named function."""

    def __init__(self, module: str, name: str):
        super().__init__(module)
        self.name = name

    def visit_FunctionDef(self, node):
        if node.name == self.name:
            self.found.append(f"{self.module}.{node.name}")
        super().visit_FunctionDef(node)


def test_integer_model_is_built_in_one_place():
    # f's (monic model, discriminant) triple is built only by poly._integer_model,
    # and the cycle types, the irreducibility decision and the discriminant read
    # it; the one discriminant call is is_separable's, which callers reach only
    # after irreducibility has said no
    assert _sites(_Defs, "_integer_model") == ["poly._integer_model"]
    assert _sites(_Calls, "_integer_model") == [
        "galois.sample_cycle_types",
        "irreducibility.is_irreducible_over_rationals",
        "modpoly.cycle_type_mod_p",
        "poly.discriminant",
    ]
    assert _sites(_Calls, "discriminant") == ["poly.is_separable"]
    assert _sites(_Calls, "primitive_integer_coeffs") == []
    # cycle types read the monic model, so no prime makes it monic again
    assert "modpoly._cycle_type" not in _sites(_Calls, "mod_monic")


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
    # the primitive part and Newton's power sums read f's monic integer model,
    # and `_integer_model` (Hensel lifting, cycle types, the discriminant) reads
    # it with its sums; no second rescaling of f exists
    assert _sites(_Calls, "_monic_model") == [
        "poly._newton_sums",
        "poly.primitive_integer_coeffs",
    ]
    assert _sites(_Calls, "_newton_sums") == [
        "poly._integer_model",
        "poly.power_traces",
        "poly.trace_moments",
        "traceform.solve_alpha",
    ]
    # clearing a polynomial's denominators: the model clears f's, the trace
    # moments clear the traced element's
    denominators = {site for site in _sites(_Reads, "denominator") if site.startswith(POLY_MODULES)}
    assert denominators == {"poly._monic_model", "poly.trace_moments"}


def test_power_sum_hankel_stays_in_integers():
    # the discriminant's determinant and solve_alpha's pairing system are the
    # integer Hankel matrix of f's power sums: Bareiss runs on Matrix rows and
    # on that Hankel, the fraction-free solve serves solve_alpha alone, and
    # neither consumer builds a Matrix or a Fraction inside the Hankel
    assert _sites(_Calls, "_int_det_bareiss") == ["matrix.charpoly", "matrix.det", "poly._integer_model"]
    assert _sites(_Calls, "_int_solve") == ["traceform.solve_alpha"]
    matrices, fractions = _sites(_Calls, "Matrix"), _sites(_Calls, "Fraction")
    for site in ("poly._integer_model", "traceform.solve_alpha"):
        assert site not in matrices
    assert "poly._integer_model" not in fractions
    # solve_alpha's two: the moments read in, and alpha's coefficients read out
    assert fractions.count("traceform.solve_alpha") == 2
