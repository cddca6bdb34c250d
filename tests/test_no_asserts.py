"""Package structure: runtime checks survive `python -O`, the package imports
only the standard library, the public names, classmethods and methods resolve
and each has a caller, RationalPoly is a value with no operators,
FACTOR_LIMIT is enforced in one place per job, f's integer forms are built in
one place each, one walk picks the good primes and one routine owns the
cycle types' Frobenius chains, the power-sum Hankel and a certificate's
matrices stay in integers, no fact is checked twice by a determinant, only
the classifier diagonalizes, and the Z/qZ kernel inverts leading
coefficients only in its Euclidean routines."""

import ast
import sys
import types
from pathlib import Path

import traceforms.algebra
from traceforms.algebra import RationalPoly

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "traceforms"


def test_no_assert_statements_in_package():
    assert (PACKAGE / "__init__.py").is_file()
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_the_standard_library():
    # the north star's "stdlib only at runtime": every import names the
    # package itself (relative or absolute) or a standard-library module
    outside = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            else:
                continue
            outside += [
                f"{path.relative_to(PACKAGE)}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"traceforms"}
            ]
    assert outside == []


def test_algebra_exports_resolve():
    missing = [name for name in traceforms.algebra.__all__ if not hasattr(traceforms.algebra, name)]
    assert missing == []


class _References(ast.NodeVisitor):
    """Names, attributes and string constants (and their dotted parts, as in
    bench/tracer.py's "Class.method" targets), except inside the top-level
    definition that defines the same name; and the qualified "Class.attr" of
    each attribute read off a name, except inside that class."""

    def __init__(self):
        self.found: set[str] = set()
        self.owner = None

    def visit_Module(self, node):
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                self.owner = stmt.name
            self.visit(stmt)
            self.owner = None

    def _add(self, name):
        if name != self.owner:
            self.found.add(name)

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        if isinstance(node.value, ast.Name) and node.value.id != self.owner:
            self.found.add(f"{node.value.id}.{node.attr}")
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            for part in node.value.split("."):
                self._add(part)
            self.found.add(node.value)


def test_every_public_name_has_a_caller():
    # a re-exported name, a public module-level function or class, or a
    # public classmethod of the package, is reached from the package itself
    # (the CLI included) or the benchmark; the two export lists and the tests
    # do not count as callers.  A classmethod is called qualified, so it is its
    # "Class.method" that must appear, outside the class itself.
    inits = {PACKAGE / "__init__.py", PACKAGE / "algebra" / "__init__.py"}
    public = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if path in inits and isinstance(node, ast.ImportFrom):
                public |= {alias.name for alias in node.names}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                public.add(node.name)
            if isinstance(node, ast.ClassDef):
                public |= {
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and any(getattr(d, "id", None) == "classmethod" for d in item.decorator_list)
                }
    callers = [p for p in sorted(PACKAGE.rglob("*.py")) if p not in inits]
    callers += sorted((ROOT / "bench").glob("*.py"))
    referenced = set()
    for path in callers:
        visitor = _References()
        visitor.visit(ast.parse(path.read_text(), str(path)))
        referenced |= visitor.found
    assert sorted(public - referenced) == []


class _AttributeReads(ast.NodeVisitor):
    """Every attribute read as `.name`, except inside a function of that name."""

    def __init__(self):
        self.found: set[str] = set()
        self.scopes: list[str] = []

    def visit_FunctionDef(self, node):
        self.scopes.append(node.name)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Attribute(self, node):
        if node.attr not in self.scopes:
            self.found.add(node.attr)
        self.generic_visit(node)


def test_every_public_method_has_a_caller():
    # a public instance method or property of a package class is read as
    # `.name` in the package (the CLI included) or the benchmark, outside its
    # own body; the tests do not count (classmethods are the test above's)
    public = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                public |= {
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")
                    and not any(getattr(d, "id", None) == "classmethod" for d in item.decorator_list)
                }
    callers = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    visitor = _AttributeReads()
    for path in callers:
        visitor.visit(ast.parse(path.read_text(), str(path)))
    assert sorted(name for name in public if name.partition(".")[2] not in visitor.found) == []


def test_rational_poly_is_a_value_with_no_operators():
    # RationalPoly is built, compared, hashed and printed; products, sums,
    # values and remainders of polynomials run on integer lists in poly and
    # modpoly (verify reads alpha != 0 mod f off the trace form), so it defines
    # the value dunders, `one` and read-only properties, and nothing else
    value = {"__init__", "__setattr__", "__bool__", "__eq__", "__hash__", "__repr__"}
    members = dict(vars(RationalPoly))
    dunders = {name for name in members if name.startswith("__") and callable(members[name])}
    assert sorted(dunders) == sorted(value)
    rest = {name: member for name, member in members.items() if not name.startswith("__")}
    assert isinstance(rest.pop("one"), classmethod)
    assert isinstance(rest.pop("coeffs"), types.MemberDescriptorType)  # the one slot
    assert sorted(rest) == ["degree", "is_monic", "is_zero", "leading"]
    assert all(isinstance(member, property) and member.fset is None for member in rest.values())
    assert not hasattr(RationalPoly, "monic")


class _Scoped(ast.NodeVisitor):
    """Collects module.function sites; subclasses decide what is a site.  A
    site inside a nested function belongs to the function that encloses it."""

    def __init__(self, module: str):
        self.module = module
        self.scope = "<module>"
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        outer = self.scope
        if outer == "<module>":
            self.scope = node.name
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
    # is_prime is the one primality guard; factorize and the classifier's
    # input validator check outside input up front.  Any other comparison
    # would be a scattered second guard.
    assert _sites(_FactorLimitComparisons) == [
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
    # and the cycle types, the irreducibility decision, the discriminant and
    # generic_experiment read it; generic_experiment builds it once and hands
    # it to the sampler and the complete decision, and reads separability off
    # its discriminant, so no package code calls is_separable (the public
    # discriminant test, which the bench and the tests call)
    assert _sites(_Defs, "_integer_model") == ["poly._integer_model"]
    assert _sites(_Calls, "_integer_model") == [
        "galois.generic_experiment",
        "galois.sample_cycle_types",
        "irreducibility.is_irreducible_over_rationals",
        "modpoly.cycle_type_mod_p",
        "poly.discriminant",
    ]
    assert _sites(_Calls, "discriminant") == ["poly.is_separable"]
    assert _sites(_Calls, "is_separable") == []
    # the complete decision on a model: the public decision and the galois
    # fallback, when the sample leaves a factor degree open
    assert _sites(_Calls, "_irreducible") == ["galois.generic_experiment", "irreducibility.is_irreducible_over_rationals"]
    assert _sites(_Calls, "primitive_integer_coeffs") == []
    # cycle types read the monic model, so no prime makes it monic again
    assert "modpoly._cycle_types" not in _sites(_Calls, "mod_monic")


class _Names(_Scoped):
    """module.function of every read of the named module constant."""

    def __init__(self, module: str, name: str):
        super().__init__(module)
        self.name = name

    def visit_Name(self, node):
        if node.id == self.name and isinstance(node.ctx, ast.Load):
            self.found.append(f"{self.module}.{self.scope}")

    def visit_Attribute(self, node):
        if node.attr == self.name:
            self.found.append(f"{self.module}.{self.scope}")
        self.generic_visit(node)


def test_one_cycle_type_routine_owns_the_chains():
    # `_cycle_types` alone decides which primes share a Frobenius chain and
    # reads the traces: the batch size, the chains and the trace patterns are
    # its own, and distinct-degree splitting runs its one-prime chain only
    # when it is handed none
    assert set(_sites(_Names, "CYCLE_TYPE_BATCH")) == {"modpoly._cycle_types"}
    assert _sites(_Calls, "_frobenius") == ["modpoly._cycle_types", "modpoly._distinct_degree"]
    assert _sites(_Calls, "_trace_pattern") == ["modpoly._cycle_types"]
    # the chain set-up (product, idempotents, steps, slot reduction) is
    # cached for `_frobenius` alone
    assert _sites(_Calls, "_chain_setup") == ["modpoly._frobenius"]


class _BadPrimeSites(_Scoped):
    """module.function of every `raise BadPrime(...)` (kind "raise") or
    `except` clause naming BadPrime (kind "except")."""

    def __init__(self, module: str, kind: str):
        super().__init__(module)
        self.kind = kind

    def _names_bad_prime(self, node) -> bool:
        return node is not None and any(getattr(sub, "id", None) == "BadPrime" for sub in ast.walk(node))

    def visit_Raise(self, node):
        if self.kind == "raise" and self._names_bad_prime(node.exc):
            self.found.append(f"{self.module}.{self.scope}")
        self.generic_visit(node)

    def visit_ExceptHandler(self, node):
        if self.kind == "except" and self._names_bad_prime(node.type):
            self.found.append(f"{self.module}.{self.scope}")
        self.generic_visit(node)


def test_one_good_prime_walk():
    # `_good_primes` alone walks the primes of the cycle types and the
    # decision and decides which are good for f; `_cycle_types` trusts the
    # primes it is handed, so only the public entry points refuse a bad
    # prime, and no caller catches BadPrime to skip one
    walks = [site for site in _sites(_Calls, "primes_above") if site.startswith(("modpoly.", "galois.", "irreducibility."))]
    assert walks == ["modpoly._good_primes"]
    assert _sites(_Calls, "_good_primes") == ["galois._sample", "irreducibility._irreducible"]
    assert _sites(_Calls, "_cycle_types") == ["galois._sample", "irreducibility._irreducible", "modpoly.cycle_type_mod_p"]
    assert _sites(_BadPrimeSites, "raise") == ["modpoly.cycle_type_mod_p"] * 2 + ["modpoly.factor_mod_p"] * 2
    assert [site for site in _sites(_BadPrimeSites, "except") if site.startswith(("galois.", "irreducibility."))] == []


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
    # Newton's power sums read f's monic integer model, and `_integer_model`
    # (Hensel lifting, cycle types, the discriminant) reads it with its sums;
    # no second rescaling of f exists
    assert _sites(_Calls, "_monic_model") == ["poly._newton_sums"]
    # the trace moments are `_trace_products` over one denominator, which
    # `trace_moments` and `scaled_trace_gram` both read
    assert _sites(_Calls, "_newton_sums") == [
        "poly._integer_model",
        "poly._trace_products",
        "traceform.solve_alpha",
    ]
    assert _sites(_Calls, "_trace_products") == ["poly.trace_moments", "traceform.scaled_trace_gram"]
    # clearing a polynomial's denominators: the model clears f's, the trace
    # products clear the traced element's
    denominators = {site for site in _sites(_Reads, "denominator") if site.startswith(POLY_MODULES)}
    assert denominators == {"poly._monic_model", "poly._trace_products"}


def test_power_sum_hankel_stays_in_integers():
    # the discriminant's determinant and solve_alpha's pairing system are the
    # integer Hankel matrix of f's power sums: Bareiss runs on Matrix rows, on
    # that Hankel and, augmented, under the fraction-free solve, which serves
    # solve_alpha alone; neither consumer builds a Matrix or a Fraction inside
    # the Hankel
    assert _sites(_Calls, "_int_det_bareiss") == ["matrix._int_solve", "matrix.det", "poly._integer_model"]
    assert _sites(_Calls, "_int_solve") == ["traceform.solve_alpha"]
    matrices, fractions = _sites(_Calls, "Matrix"), _sites(_Calls, "Fraction")
    for site in ("poly._integer_model", "traceform.solve_alpha"):
        assert site not in matrices
    assert "poly._integer_model" not in fractions
    # solve_alpha's two: the moments read in (by exact_rational), and alpha's coefficients read out
    assert fractions.count("traceform.solve_alpha") == 1
    assert _sites(_Calls, "exact_rational").count("traceform.solve_alpha") == 1


def test_certificate_matrices_stay_in_integers():
    # a certificate's matrices are read, built and printed as integer rows over
    # one denominator: no Fraction per entry, directly or through the
    # Fraction-handing readers (`rows`, `exact_rational`, `trace_moments`)
    fractions = _sites(_Calls, "Fraction") + _sites(_Calls, "exact_rational") + _sites(_Calls, "trace_moments")
    rows = _sites(_Reads, "rows")
    for site in ("serialize.matrix_to_json", "matrix.__init__", "traceform.scaled_trace_gram"):
        assert site not in fractions and site not in rows
    # the pair reader is Matrix's, and exact_rational wraps it
    assert "matrix.__init__" in _sites(_Calls, "_rational_pair")
    assert "poly.exact_rational" in _sites(_Calls, "_rational_pair")
    # in realize, the only Fractions are the moments handed to solve_alpha
    realize = next(
        node
        for node in ast.parse((PACKAGE / "traceform.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "realize"
    )

    def fraction_calls(tree):
        return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "Fraction"]

    handed = [
        call
        for node in ast.walk(realize)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "solve_alpha"
        for arg in node.args
        for call in fraction_calls(arg)
    ]
    assert len(handed) == 1 and fraction_calls(realize) == handed
    assert "traceform.realize" not in rows


def test_charpoly_and_verify_take_no_determinant():
    # charpoly's result is checked by its own exact divisions and by
    # Cayley-Hamilton, and verify_certificate's congruence clause implies
    # det P != 0, so neither calls a determinant
    determinants = _sites(_Calls, "det") + _sites(_Calls, "_int_det_bareiss")
    assert "matrix.charpoly" not in determinants
    assert "traceform.verify_certificate" not in determinants


def test_only_the_classifier_diagonalizes():
    # realize works in the target's own coordinates (A D is self-adjoint for
    # D, so no diagonal basis is needed); the congruence serves the Witt
    # invariants alone
    assert _sites(_Calls, "congruence_diagonalize") == ["quadform._diagonal_entries"]


class _ModularInverses(_Scoped):
    """module.function of every `pow(x, -1, q)`."""

    def visit_Call(self, node):
        if getattr(node.func, "id", None) == "pow" and len(node.args) == 3 and ast.unparse(node.args[1]) == "-1":
            self.found.append(f"{self.module}.{self.scope}")
        self.generic_visit(node)


def test_one_euclid_in_the_kernel():
    # the packed walk and the splitting routines reach division only through
    # mod_divmod and mod_gcd, so no second, inlined Euclid grows inside them
    inverses = [site for site in _sites(_ModularInverses) if site.startswith("modpoly.")]
    assert inverses == ["modpoly.mod_divmod", "modpoly.mod_gcd", "modpoly.mod_monic", "modpoly.mod_xgcd"]
