"""The package uses no numpy name newer than the floor pyproject.toml declares.

The suite runs on whatever numpy is installed, so a call that exists only in
a later release passes here and fails for a user at the floor. The names
below are those numpy added after 1.24 that a numerical program is likely
to reach for.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NEWER_THAN_FLOOR = {
    # 1.25
    "exceptions", "dtypes",
    # 2.0: array-API names in the main namespace and in numpy.linalg
    "vecdot", "matrix_transpose", "permute_dims", "concat", "pow", "astype", "isdtype",
    "unique_all", "unique_counts", "unique_inverse", "unique_values", "bitwise_count",
    "trapezoid", "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh",
    "bitwise_left_shift", "bitwise_right_shift", "bitwise_invert",
    "vector_norm", "matrix_norm", "svdvals",
    # 2.1 and 2.2
    "cumulative_sum", "cumulative_prod", "matvec", "vecmat",
}


def numpy_attributes(tree: ast.AST) -> set[str]:
    """Every attribute read from `np` or `np.linalg`."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Attribute) and base.attr == "linalg":
            base = base.value
        if isinstance(base, ast.Name) and base.id == "np":
            found.add(node.attr)
    return found


def test_declared_floor_is_the_one_checked():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'"numpy>=1\.24"', pyproject)


def test_package_uses_no_numpy_name_newer_than_the_floor():
    used = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for name in numpy_attributes(ast.parse(path.read_text(encoding="utf-8"))):
            used.setdefault(name, []).append(path.name)
    assert used, "no numpy use found: the scan is broken"
    assert {n: used[n] for n in sorted(used.keys() & NEWER_THAN_FLOOR)} == {}
