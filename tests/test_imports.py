"""Package layout: no qbft module imports another module's private names,
only bessel evaluates the decay envelope of j, only transform reads the
whole-lattice record a transform output keeps (core's GridFunction only
assigns it, to None), convolve_direct, the independent oracle of
convolution, builds no spectral product and looks none up in the record
memo, only transform does arithmetic on raw mpf tuples, no
module keeps hand-rolled module state, every memo is bounded, and only
core's QParams and QGrid define __eq__ or __hash__.

A private helper (leading underscore) belongs to the module that defines
it; a second module that needs it should get a public entry point instead.
Truncation decisions built on the envelope go through bessel's quadrature
rules, so each rule is written once: the per-point quadratures (g_a_lattice,
triple_kernel) size and sum their range in bessel, and other modules call
them, g_a_floored or j_nu_lattice_row.  No module but bessel names
decay_bound_log10, envelope_scale or quadrature_range.  Other modules reach
a whole-lattice spectrum through transform.spectrum.  Only bessel's
_series reads the series' term ratios (_term_ratio), so j_nu and i_nu are
summed by one loop with one stop rule.  core is the one
module that imports mpmath.libmp, by an import statement or as an
attribute of a bare `import mpmath`: it owns the arithmetic on the integer
mantissas and exponents core.split_mpf reads.  transform and bessel share
its exact dot (core.exact_dot) and its rounding of sums and products
(core.round_split, core.split_products).  kernels and variation hand
transform lattice rows in that split form but do no arithmetic on it, and
everything else works on mpf values.  transform reads a grid function's
.values only in norm, which returns an mpf: every plan application reads
and writes samples as split integers (PackedSamples.split and
from_split), so no application decodes a sample to mpf.  Only core materializes QParams' decimal strings: no other
module hands q_str, nu_str or tol_str to mpmathify, parse_number or mpf, so
every module reads q, nu and tol through core's one bounded memo
(QParams.q, .nu, .tol, or core.materialize).  Memos are functools.lru_cache
functions, bounded and keyed on their inputs, so no module needs a global
statement or a module-level container to fill.  Each passes its bound as an
explicit maxsize; functools.cache has none.  verify formats its numbers
through core.decimal_str alone: it calls no nstr and keeps no _nstr.
"""

import ast
from pathlib import Path

import qbft

PACKAGE = Path(qbft.__file__).parent


def private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "qbft"
        if internal:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_module_imports_private_names():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py"))
                 for hit in private_imports(path)]
    assert offenders == []


ENVELOPE_NAMES = ("decay_bound_log10", "envelope_scale", "quadrature_range")


def envelope_references(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ENVELOPE_NAMES:
            yield f"{path.name}:{getattr(node, 'lineno', '?')} uses {name}"


def test_only_bessel_uses_the_decay_envelope():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "bessel.py"
                 for hit in envelope_references(path)]
    assert offenders == []


def lattice_record_reads(path):
    """Reads of a .lattice attribute; an assignment to one is not a read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "lattice"
                and not isinstance(node.ctx, ast.Store)):
            yield f"{path.name}:{node.lineno} reads .lattice"


def test_only_transform_reads_the_lattice_record():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "transform.py"
                 for hit in lattice_record_reads(path)]
    assert offenders == []


def test_lattice_lint_sees_a_read(tmp_path):
    module = tmp_path / "recording.py"
    module.write_text("def drop(f):\n"
                      "    f.lattice = None\n"
                      "def key(f):\n"
                      "    return f.lattice.grid\n")
    assert [hit.split(":", 1)[1] for hit in lattice_record_reads(module)] == [
        "4 reads .lattice"]


ORACLE_SHORTCUTS = ("_record", "_column")


def oracle_shortcuts(path, func="convolve_direct"):
    """Names inside func that look a record up in the record memo or form
    translate's j column, and LatticeRecord calls given a factor (more than
    a plan and a source); a module that does not define func is reported
    too."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == func]
    if not defs:
        yield f"{path.name} defines no {func}"
    for node in (inner for fn in defs for inner in ast.walk(fn)):
        name = getattr(node, "id", getattr(node, "attr", None))
        if isinstance(node, (ast.Name, ast.Attribute)) and name in ORACLE_SHORTCUTS:
            yield f"{path.name}:{node.lineno} uses {name} in {func}"
        elif isinstance(node, ast.Call) and len(node.args) + len(node.keywords) > 2:
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee == "LatticeRecord":
                yield f"{path.name}:{node.lineno} builds a product record in {func}"


def test_convolve_direct_stays_independent_of_the_product_memo():
    assert list(oracle_shortcuts(PACKAGE / "transform.py")) == []


def test_oracle_lint_sees_a_shortcut(tmp_path):
    module = tmp_path / "shortcut.py"
    module.write_text("def convolve_direct(f, g, plan):\n"
                      "    fh = _transform(plan, f).samples()\n"
                      "    own = LatticeRecord(plan, fh)\n"
                      "    out = _record(plan, fh, g)\n"
                      "    col = _column(plan, 3)\n"
                      "    rec = transform.LatticeRecord(plan, fh, factor=col)\n"
                      "    return LatticeRecord(plan, fh, g), transform._record.cache_info()\n"
                      "def convolve(f, g, plan):\n"
                      "    return _record(plan, f, g), LatticeRecord(plan, f, g)\n")
    assert sorted(hit.split(":", 1)[1] for hit in oracle_shortcuts(module)) == [
        "4 uses _record in convolve_direct", "5 uses _column in convolve_direct",
        "6 builds a product record in convolve_direct",
        "7 builds a product record in convolve_direct", "7 uses _record in convolve_direct"]
    assert list(oracle_shortcuts(module, "translate")) == ["shortcut.py defines no translate"]


def libmp_imports(path):
    """Imports of mpmath.libmp, and reads of it as mpmath.libmp through a
    bare import of mpmath."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "mpmath":
                names += [f"mpmath.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "libmp"
              and isinstance(node.value, ast.Name) and node.value.id == "mpmath"):
            yield f"{path.name}:{node.lineno} reads mpmath.libmp"
            continue
        else:
            continue
        if any(n == "mpmath.libmp" or n.startswith("mpmath.libmp.") for n in names):
            yield f"{path.name}:{node.lineno} imports mpmath.libmp"


def test_only_core_imports_libmp():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "core.py"
                 for hit in libmp_imports(path)]
    assert offenders == []
    assert list(libmp_imports(PACKAGE / "core.py"))


def test_libmp_lint_sees_every_route(tmp_path):
    module = tmp_path / "rounding.py"
    module.write_text("import mpmath\n"
                      "import mpmath.libmp\n"
                      "from mpmath import libmp\n"
                      "from mpmath.libmp import from_man_exp\n"
                      "def _rounded(man, exp, prec):\n"
                      "    return mpmath.libmp.from_man_exp(man, exp, prec)\n"
                      "def _sum(values):\n"
                      "    return mpmath.fsum(values)\n")
    assert [hit.split(":", 1)[1] for hit in libmp_imports(module)] == [
        "2 imports mpmath.libmp", "3 imports mpmath.libmp", "4 imports mpmath.libmp",
        "6 reads mpmath.libmp"]


def values_reads(path, allowed=("norm",)):
    """Reads of a .values attribute outside the functions named in allowed,
    each attributed to its innermost enclosing function."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "values"
                    and isinstance(child.ctx, ast.Load) and func not in allowed):
                yield f"{path.name}:{child.lineno} reads .values in {func}"
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else func
            yield from visit(child, inner)

    yield from visit(tree, "module scope")


def test_transform_decodes_samples_only_in_norm():
    assert list(values_reads(PACKAGE / "transform.py")) == []


def test_values_lint_sees_a_decode(tmp_path):
    module = tmp_path / "decoding.py"
    module.write_text("def norm(f):\n"
                      "    return max(abs(v) for v in f.values)\n"
                      "def _lift(plan, samples):\n"
                      "    vec = samples.values\n"
                      "    samples.values = vec\n")
    assert [hit.split(" ", 1)[1] for hit in values_reads(module)] == [
        "reads .values in _lift"]


def term_ratio_reads(path, allowed=("_series",)):
    """Reads of _term_ratio, by name or as an attribute, outside the
    functions named in allowed, each attributed to its innermost enclosing
    function: a call, and an alias that could be called elsewhere."""
    tree = ast.parse(path.read_text(), filename=str(path))

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.Name, ast.Attribute))
                    and getattr(child, "id", getattr(child, "attr", None)) == "_term_ratio"
                    and isinstance(child.ctx, ast.Load) and func not in allowed):
                yield f"{path.name}:{child.lineno} reads _term_ratio in {func}"
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else func
            yield from visit(child, inner)

    yield from visit(tree, "module scope")


def test_only_the_series_loop_reads_the_term_ratios():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py"))
                 for hit in term_ratio_reads(path)]
    assert offenders == []
    # and _series does read them, once
    assert [hit.split(" in ")[1] for hit in
            term_ratio_reads(PACKAGE / "bessel.py", allowed=())] == ["_series"]


def test_term_ratio_lint_sees_a_second_caller(tmp_path):
    module = tmp_path / "series.py"
    module.write_text("def _series(x2, n):\n"
                      "    return _term_ratio(n) * x2\n"
                      "def i_nu(x2, n):\n"
                      "    ratio = _term_ratio\n"
                      "    return bessel._term_ratio(n) * x2\n"
                      "FIRST = _term_ratio(0)\n")
    assert [hit.split(":", 1)[1] for hit in term_ratio_reads(module)] == [
        "4 reads _term_ratio in i_nu", "5 reads _term_ratio in i_nu",
        "6 reads _term_ratio in module scope"]


PARAMETER_STRINGS = ("q_str", "nu_str", "tol_str")
PARSERS = ("mpmathify", "parse_number", "mpf")


def parameter_parses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = getattr(node.func, "id", getattr(node.func, "attr", None))
        if func not in PARSERS:
            continue
        for arg in node.args + [kw.value for kw in node.keywords]:
            name = getattr(arg, "id", getattr(arg, "attr", None))
            if isinstance(arg, (ast.Name, ast.Attribute)) and name in PARAMETER_STRINGS:
                yield f"{path.name}:{node.lineno} passes {name} to {func}"


def test_only_core_materializes_parameters():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "core.py"
                 for hit in parameter_parses(path)]
    assert offenders == []


def test_parameter_lint_sees_a_private_parse(tmp_path):
    module = tmp_path / "parsed.py"
    module.write_text("def _q_nu(q_str, nu_str, prec):\n"
                      "    return mpmathify(q_str), mpmath.mpf(params.nu_str)\n")
    assert [hit.split(" ", 1)[1] for hit in parameter_parses(module)] == [
        "passes q_str to mpmathify", "passes nu_str to mpf"]


EMPTY_CONTAINERS = ("set", "dict", "list", "OrderedDict")


def module_state(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield f"{path.name}:{node.lineno} global {', '.join(node.names)}"
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = node.value
        empty = (isinstance(value, ast.Dict) and not value.keys
                 or isinstance(value, ast.List) and not value.elts
                 or isinstance(value, ast.Call) and not value.args
                 and not value.keywords
                 and getattr(value.func, "id", getattr(value.func, "attr", None))
                 in EMPTY_CONTAINERS)
        if empty:
            yield f"{path.name}:{node.lineno} binds an empty container"


def test_no_hand_rolled_module_state():
    offenders = [hit for path in sorted(PACKAGE.glob("*.py"))
                 for hit in module_state(path)]
    assert offenders == []


def memo_decorators(path):
    """(lineno, problem or None) for each functools memo in the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    called = {id(node.func): node for node in ast.walk(tree)
              if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in ("cache", "lru_cache"):
                    yield node.lineno, f"imports functools.{alias.name} by name"
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            continue
        if node.attr == "cache":
            yield node.lineno, "uses functools.cache, which has no bound"
        elif node.attr == "lru_cache":
            call = called.get(id(node))
            maxsize = [kw.value for kw in call.keywords
                       if kw.arg == "maxsize"] if call else []
            if not maxsize:
                yield node.lineno, "lru_cache without an explicit maxsize"
            elif isinstance(maxsize[0], ast.Constant) and maxsize[0].value is None:
                yield node.lineno, "lru_cache with maxsize=None"
            else:
                yield node.lineno, None


def test_every_memo_is_bounded():
    found = [(path.name, line, problem) for path in sorted(PACKAGE.glob("*.py"))
             for line, problem in memo_decorators(path)]
    assert [f for f in found if f[2] is not None] == []
    assert len(found) >= 5


KEYED_CLASSES = (("core.py", "QParams"), ("core.py", "QGrid"))


def equality_definitions(path):
    """(class, name) for each __eq__ or __hash__ a class body defines or
    assigns."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name in ("__eq__", "__hash__"):
                    yield cls.name, name


def test_memo_keys_compare_by_value_only_for_qparams_and_qgrid():
    # every other memo key compares by identity or is a plain value, so a
    # memo is keyed by its arguments as they are
    found = {(path.name, cls, name) for path in sorted(PACKAGE.glob("*.py"))
             for cls, name in equality_definitions(path)}
    assert found == {(module, cls, name) for module, cls in KEYED_CLASSES
                     for name in ("__eq__", "__hash__")}


def test_equality_lint_sees_every_definition(tmp_path):
    module = tmp_path / "keyed.py"
    module.write_text("class Column:\n"
                      "    def __eq__(self, other):\n"
                      "        return self.m == other.m\n"
                      "    def __hash__(self):\n"
                      "        return hash(self.m)\n"
                      "    def split(self):\n"
                      "        return ()\n"
                      "class Product:\n"
                      "    __hash__ = None\n"
                      "    def _key(self):\n"
                      "        def __eq__(a, b):\n"
                      "            return a is b\n"
                      "        return __eq__\n")
    assert list(equality_definitions(module)) == [
        ("Column", "__eq__"), ("Column", "__hash__"), ("Product", "__hash__")]


def private_formatting(path):
    """Uses of mpmath's nstr (a call, an attribute, an import or an alias)
    and definitions of a _nstr, function or binding."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        name = getattr(node, "id", getattr(node, "attr", None))
        if isinstance(node, ast.alias):
            name = node.name
        if isinstance(node, ast.FunctionDef) and node.name == "_nstr" or (
                name == "_nstr" and isinstance(getattr(node, "ctx", None), ast.Store)):
            yield f"{path.name}:{node.lineno} defines _nstr"
        elif name == "nstr":
            yield f"{path.name}:{getattr(node, 'lineno', '?')} uses nstr"


def test_verify_formats_only_through_decimal_str():
    assert list(private_formatting(PACKAGE / "verify.py")) == []


def test_formatting_lint_sees_a_private_formatter(tmp_path):
    module = tmp_path / "report.py"
    module.write_text("from mpmath import mp, nstr\n"
                      "def _nstr(x, n=6):\n"
                      "    return mp.nstr(x, n)\n"
                      "def show(x):\n"
                      "    return nstr(x, 3)\n"
                      "_nstr = decimal_str\n")
    assert sorted(hit.split(":", 1)[1] for hit in private_formatting(module)) == [
        "1 uses nstr", "2 defines _nstr", "3 uses nstr", "5 uses nstr", "6 defines _nstr"]
