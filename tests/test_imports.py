"""Unused-name checks over the package modules and the tests.

No linter ships with the toolchain, so these walk the syntax trees. Every
name an import binds must be read somewhere in the module; an import line
marked `# noqa: F401` is exempt (the re-imports the benchmark probes
rebind). Every public module-level function and class of the package must
be read by another top-level definition of the package, by name or as an
attribute. The package `__init__` is exempt from both: its imports are the
public API, and a re-export there is no reader. The MINRES recurrence imports
nothing of the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
PACKAGE = sorted(p for p in (ROOT / "src" / "saddleprec").glob("*.py")
                 if p.name != "__init__.py")
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path: Path) -> list:
    """(line, name) of every imported name the module never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read:
                unused.append((node.lineno, name))
    return unused


def test_no_unused_imports():
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p) for p in MODULES}
    assert not {path: names for path, names in found.items() if names}


def unread_definitions() -> list:
    """(module, name) of each public module-level function or class of the
    package that no other top-level statement of the package reads."""
    defined, reads = {}, []
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            reads.append((node, {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))
                and isinstance(n.ctx, ast.Load)}))
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[path.stem, node.name] = node
    return sorted(key for key, node in defined.items()
                  if not any(key[1] in names
                             for other, names in reads if other is not node))


def test_every_public_definition_has_a_reader():
    assert unread_definitions() == []


def sparse_linalg_reads(path: Path) -> list:
    """(line, text) of each import of scipy.sparse.linalg in a module, and of
    each `.linalg` read on a name bound to scipy.sparse."""
    sparse_names, found = set(), []
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("scipy.sparse.linalg"):
                    found.append((node.lineno, alias.name))
                elif alias.name == "scipy.sparse":
                    sparse_names.add(alias.asname or "scipy")
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.sparse.linalg"):
                found.append((node.lineno, node.module))
            for alias in node.names:
                if node.module == "scipy.sparse" and alias.name == "linalg":
                    found.append((node.lineno, "scipy.sparse.linalg"))
                elif node.module == "scipy" and alias.name == "sparse":
                    sparse_names.add(alias.asname or "sparse")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "linalg"
                and ast.unparse(node.value) in sparse_names | {"scipy.sparse"}):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_sparse_direct_solver_in_the_package():
    # P_Y's one factor is LAPACK's banded Cholesky: no source file reaches
    # scipy.sparse.linalg (splu, spsolve, ...), so a sparse direct path
    # cannot come back beside it unnoticed
    found = {p.relative_to(ROOT).as_posix(): sparse_linalg_reads(p) for p in SOURCES}
    assert SOURCES and not {path: reads for path, reads in found.items() if reads}


def name_reads(path: Path, names: set) -> list:
    """(line, text) of each read of one of `names` in a module: as an
    attribute, as a name, or by import."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if ((isinstance(node, ast.Attribute) and node.attr in names)
                or (isinstance(node, ast.Name) and node.id in names)):
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[-1] in names]
    return found


def test_no_einsum_in_the_package():
    # every Kronecker contraction of the package is sum factorization by
    # kron.mode_products, so no hand-written contraction of the same product
    # comes back unnoticed; the tests keep theirs as independent oracles
    found = {p.relative_to(ROOT).as_posix(): name_reads(p, {"einsum"})
             for p in SOURCES}
    assert SOURCES and not {path: reads for path, reads in found.items() if reads}
    # the check does see a read
    assert name_reads(ROOT / "tests" / "test_assembly.py", {"einsum"})


FRONT_KERNELS = {"dpotrf", "dsyrk", "dtrsm"}


def test_no_frontal_factor_kernels_in_the_package(tmp_path):
    # P_Y's one factor is LAPACK's banded Cholesky: no source file reads the
    # dense kernels of a frontal factor, so a hand-rolled one cannot come
    # back beside it unnoticed
    found = {p.relative_to(ROOT).as_posix(): name_reads(p, FRONT_KERNELS)
             for p in SOURCES}
    assert SOURCES and not {path: reads for path, reads in found.items() if reads}
    # the check does see each kind of read
    module = tmp_path / "frontal.py"
    module.write_text("from scipy.linalg.blas import dsyrk\n"
                      "from scipy.linalg import lapack\n"
                      "lapack.dpotrf(a)\n"
                      "dtrsm(a)\n")
    assert sorted(line for line, _ in name_reads(module, FRONT_KERNELS)) == [1, 3, 4]


def package_imports(path: Path) -> list:
    """(line, module) of each import of the package in a module: relative,
    or by the name saddleprec."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "saddleprec"):
            found.append((node.lineno, "." * node.level + (node.module or "")))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] == "saddleprec"]
    return found


def test_krylov_imports_nothing_of_the_package():
    # MINRES is problem-agnostic: the coordinates it runs in come from its
    # caller, so the recurrence cannot grow a path for one problem
    assert package_imports(ROOT / "src" / "saddleprec" / "krylov.py") == []
    # the check does see a module's package imports
    assert package_imports(ROOT / "src" / "saddleprec" / "precond.py")


MEMO_CACHES = {"lru_cache", "cache"}


def memo_caches(path: Path) -> list:
    """(line, text) of each reach for functools' process-wide memo caches in
    a module: an import of lru_cache or cache from functools, or a read of
    either as an attribute of a name bound to functools."""
    functools_names, found = set(), []
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            functools_names |= {alias.asname or alias.name for alias in node.names
                                if alias.name == "functools"}
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, f"functools.{alias.name}")
                      for alias in node.names if alias.name in MEMO_CACHES]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in MEMO_CACHES
                and isinstance(node.value, ast.Name)
                and node.value.id in functools_names):
            found.append((node.lineno, ast.unparse(node)))
    return found


def test_no_process_wide_caches_in_the_package(tmp_path):
    # what a solve holds belongs to its setup, where the memory gate counts
    # it and a finished setup frees it: no module keeps arrays in a
    # functools cache across setups; a per-object cached_property stays
    found = {p.relative_to(ROOT).as_posix(): memo_caches(p) for p in SOURCES}
    assert SOURCES and not {path: reads for path, reads in found.items() if reads}
    # the check does see each kind of reach, and lets cached_property pass
    module = tmp_path / "cached.py"
    module.write_text("import functools as ft\n"
                      "from functools import cached_property, lru_cache\n"
                      "from functools import cache as memo\n"
                      "@ft.lru_cache(maxsize=4)\n"
                      "def f(n): return n\n"
                      "g = ft.cache(f)\n")
    assert sorted(line for line, _ in memo_caches(module)) == [2, 3, 4, 6]
