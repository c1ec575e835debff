"""Write the output of every rclab command the byte comparison reads.

    python tests/snapshot.py OUTDIR

For each of the ten algebras it runs, each in a fresh process on the
``src/`` of the checkout holding this file:

- ``check all``;
- ``polys`` in json, csv and latex for each k up to the algebra's cap;
- ``polys --kind restricted`` in json and csv for each k, over Q[s,t] and
  at (lambda, mu) = (7/2, 2);
- ``gram`` with the default weights, and with ``--kmax min(2, cap)
  --lambda 4 --mu 4``;
- ``gamma --nu 4.5``, alone and with ``--rule eigenvalue-quadrature
  --nodes 20``.

OUTDIR/<algebra>/ gets <command>.out and <command>.err, the bytes of
stdout and stderr, and exit_codes.txt, one "<command> <code>" line per
command.  The commands of one algebra run in order in one scratch working
directory; none passes --cache-dir, and there is no default cache
directory, so each process builds its polynomials afresh.  To compare two
checkouts, copy this file into the other one's tests/, run it there too
and ``diff -r`` the two OUTDIRs.  pytest does not collect this file.
"""

import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from rclab.algebra import ALGEBRA_NAMES  # noqa: E402
from rclab.cli import K_CAPS  # noqa: E402

RUN = "import sys; from rclab.cli import main; sys.exit(main())"


def commands(name):
    """The argument lists for one algebra, in the order they run."""
    cap = K_CAPS[name]
    alg = ["--algebra", name]
    out = [["check", "all"] + alg]
    for k in range(cap + 1):
        for fmt in ("json", "csv", "latex"):
            out.append(["polys"] + alg + ["--k", str(k), "--format", fmt])
        for fmt in ("json", "csv"):
            for weights in ([], ["--lambda", "7/2", "--mu", "2"]):
                out.append(["polys"] + alg + ["--kind", "restricted", "--k", str(k),
                                              "--format", fmt] + weights)
    out.append(["gram"] + alg)
    out.append(["gram"] + alg + ["--kmax", str(min(2, cap)), "--lambda", "4", "--mu", "4"])
    out.append(["gamma"] + alg + ["--nu", "4.5"])
    out.append(["gamma"] + alg + ["--nu", "4.5", "--rule", "eigenvalue-quadrature",
                                  "--nodes", "20"])
    return out


def label(args, name):
    """A file name for one argument list of the algebra ``name``, which names
    the directory: check_all, polys_k_2_format_csv, ..."""
    return "_".join(a.lstrip("-").replace("/", "_") for a in args
                    if a not in ("--algebra", name))


def snapshot(name, outdir):
    target = outdir / name
    target.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    codes = []
    with tempfile.TemporaryDirectory() as work:
        for args in commands(name):
            run = subprocess.run([sys.executable, "-c", RUN] + args, cwd=work, env=env,
                                 capture_output=True)
            stem = label(args, name)
            (target / f"{stem}.out").write_bytes(run.stdout)
            (target / f"{stem}.err").write_bytes(run.stderr)
            codes.append(f"{stem} {run.returncode}\n")
    (target / "exit_codes.txt").write_text("".join(codes))
    return name


def main(argv):
    if len(argv) != 1:
        print("usage: python tests/snapshot.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    with ThreadPoolExecutor(max_workers=2) as pool:
        for name in pool.map(lambda name: snapshot(name, outdir), ALGEBRA_NAMES):
            print(name, "done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
