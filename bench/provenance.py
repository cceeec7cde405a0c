"""Where a benchmark run's code came from and what it ran on."""

from __future__ import annotations

import hashlib
import os
import platform
import sys

ENV_PREFIX = "HYPERCONN_"


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def clear_env() -> list:
    """Unset every HYPERCONN_* variable (budgets and caps), so the caller's
    shell cannot change what is measured.  Returns the names removed."""
    removed = sorted(k for k in os.environ if k.startswith(ENV_PREFIX))
    for k in removed:
        del os.environ[k]
    return removed


def package_dir(root: str) -> str:
    """src/hyperconn of the checkout; exits when it is missing."""
    pkg = os.path.join(root, "src", "hyperconn")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise SystemExit(f"benchmark failed: no hyperconn package at {pkg}")
    return pkg


def use_checkout_source(root: str) -> None:
    """Import hyperconn from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, os.path.dirname(package_dir(root)))


def check_loaded_from(root: str, module) -> None:
    where = os.path.abspath(module.__file__)
    if not where.startswith(os.path.join(root, "src") + os.sep):
        raise SystemExit(f"hyperconn was imported from {where}, not the checkout")


def git_sha(root: str) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def source_sha256(root: str) -> str:
    """Digest of src/hyperconn/*.py, which identifies the code when the
    checkout is not a git repository."""
    pkg = package_dir(root)
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def describe(root: str) -> dict:
    return {
        "git_sha": git_sha(root),
        "src_sha256": source_sha256(root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
