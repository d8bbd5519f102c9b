"""Compare `bellcheck run` between a git ref and the working tree.

    python tools/parity.py REF

Unpacks `git archive REF` into a temporary directory, then runs each
invocation of tools/parity_corpus.txt as `python -m bellcheck.cli run ...`,
one at a time, against the src/ of that tree and of the working tree.  Each
run starts in an empty directory of its own, with the environment of this
process apart from PYTHONPATH, BELLCHECK_SEED (unset unless the line sets
it) and the line's own NAME=value settings.  A run matches when the sha256
of stdout, the stderr text, the exit code and the sha256 of every file the
run wrote (an --out report) are equal.

Prints one JSON line, {"ref", "matched", "total", "mismatches"}, the first
few mismatches each naming its line and what differed.  Exits 0 when every
invocation matched, 1 when some did not, 2 when REF cannot be unpacked.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(ROOT, "tools", "parity_corpus.txt")
SHOWN = 5
TIMEOUT_S = 600


def read_corpus(path: str = CORPUS) -> list[tuple[dict[str, str], list[str]]]:
    """(environment settings, arguments after `run`) of each corpus line."""
    entries = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            words = shlex.split(line, comments=True)
            if not words:
                continue
            env = {}
            while words and "=" in words[0] and not words[0].startswith("-"):
                name, _, value = words.pop(0).partition("=")
                env[name] = value
            entries.append((env, words))
    return entries


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_one(tree: str, env_extra: dict[str, str], args: list[str]) -> dict:
    """What one invocation gives against tree/src: stdout digest, stderr,
    exit code and the digest of each file it wrote."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("BELLCHECK_SEED", None)
    env.update(env_extra)
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-m", "bellcheck.cli", "run", *args],
                              cwd=cwd, env=env, capture_output=True, timeout=TIMEOUT_S)
        files = {}
        for name in sorted(os.listdir(cwd)):
            with open(os.path.join(cwd, name), "rb") as handle:
                files[name] = _sha256(handle.read())
    return {"stdout": _sha256(proc.stdout), "stderr": proc.stderr.decode("utf-8", "replace"),
            "exit": proc.returncode, "files": files}


def unpack(ref: str, into: str) -> None:
    """The tree of `ref` in directory `into`, from `git archive`."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter, where this Python has it, refuses links out of `into`.
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the git ref to compare the working tree with")
    ns = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as base:
        try:
            unpack(ns.ref, base)
        except subprocess.CalledProcessError as exc:
            print(f"parity: cannot unpack {ns.ref!r}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        corpus = read_corpus()
        mismatches = []
        for env, args in corpus:
            got, want = run_one(ROOT, env, args), run_one(base, env, args)
            differs = [key for key in want if got[key] != want[key]]
            if differs:
                mismatches.append({"line": shlex.join([f"{k}={v}" for k, v in env.items()] + args),
                                   "differs": differs,
                                   "ref_exit": want["exit"], "tree_exit": got["exit"]})
    print(json.dumps({"ref": ns.ref, "matched": len(corpus) - len(mismatches),
                      "total": len(corpus), "mismatches": mismatches[:SHOWN]}))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
