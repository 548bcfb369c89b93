#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form builds perfbench/main.exe with dune (from source, in
_build), runs one workload and passes its output through. The last
line of standard output is the JSON result; its metric names are
checked against BENCHMARK.json. The exit code is non-zero when the
build fails, when any output disagrees with its oracle, or when the
result does not match BENCHMARK.json. Traced runs (--trace 1) write
their spans to perfbench/out/trace-<workload>-<seed>.json.

The second form runs the benchmark's own tests on shrunken inputs
(see README.md).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ["v4-bgp-1m", "proto-mix", "fabric-sim"]
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def die(msg, code=3):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            die("no %s at %s: run from a full checkout of the repository" % (need, ROOT))
    try:
        p = subprocess.run(
            # No shared dune cache: the benchmark writes only inside
            # the checkout.
            ["dune", "build", "--root", ROOT, "--cache=disabled", "./perfbench/main.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT)
    except FileNotFoundError:
        die("dune not found")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout.decode(errors="replace"))
        die("build failed")


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run(args, timeout=RUN_TIMEOUT):
    """Run main.exe; returns (exit code, stdout lines). The child is
    killed and reaped if it outlives [timeout]."""
    p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        die("run timed out after %d s" % timeout)
    return p.returncode, out.decode(errors="replace").splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check_result(res, trace):
    """Problems with a result line, as a list of strings."""
    if res is None:
        return ["last line is not a JSON result"]
    problems = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(res))
        return problems
    names = expected_names(trace)
    got = list(res["metrics"])
    if sorted(got) != sorted(names):
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s" % (missing, extra))
    return problems


def main_run(a):
    build()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        args += ["--trace-file",
                 os.path.join(HERE, "out", "trace-%s-%d.json" % (a.workload, a.seed))]
    code, lines = run(args)
    for line in lines:
        print(line)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)
    problems = check_result(result_of(lines), a.trace)
    if problems:
        die("; ".join(problems), 4)


# --- the benchmark's own tests ---------------------------------------

def note(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line
    return None


def selftest():
    build()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    def small(w, seed, trace, *extra):
        args = ["--workload", w, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--small"]
        if trace:
            args += ["--trace-file", os.path.join(HERE, "out", "selftest-%s.json" % w)]
        return run(args + list(extra))

    for w in WORKLOADS:
        c1, l1 = small(w, 1, 0)
        c2, l2 = small(w, 1, 0)
        c3, l3 = small(w, 2, 0)
        r1, r2 = result_of(l1), result_of(l2)
        expect(c1 == 0 and c2 == 0 and c3 == 0, "%s: runs pass their oracles" % w)
        expect(not check_result(r1, False), "%s: end-to-end metric names match BENCHMARK.json" % w)
        d1, d2, d3 = note(l1, "digest:"), note(l2, "digest:"), note(l3, "digest:")
        expect(d1 is not None and d1 == d2,
               "%s: same seed, same workload and verdict digests" % w)
        expect(r1 is not None and r2 is not None
               and r1["metrics"]["alloc_words_per_pkt"] == r2["metrics"]["alloc_words_per_pkt"],
               "%s: same seed, same alloc_words_per_pkt" % w)
        expect(d1 is not None and d3 is not None
               and d1.split()[1] != d3.split()[1],
               "%s: another seed changes the workload" % w)
        ct, lt = small(w, 1, 1)
        rt = result_of(lt)
        expect(ct == 0 and not check_result(rt, True),
               "%s: traced run passes, per-layer metric names match BENCHMARK.json" % w)
        rows = [l.split()[0] for l in lt if l.startswith("  engine.") or l.startswith("  opt.")]
        rows = [n for n in rows if n not in (rt or {}).get("metrics", {})]
        expect(len(rows) == (23 if w == "proto-mix" else 0),
               "%s: per-class and MAC rows printed by proto-mix alone" % w)
        if rt is not None and "metrics" in rt:
            m = rt["metrics"]
            selfs = ["parse.cold_words", "parse.cached_words", "engine.process_words",
                     "actions.words", "sim.words_per_hop"]
            expect(all(m.get(k, {"value": -1})["value"] >= 0 for k in selfs),
                   "%s: every ladder stage's self allocation is non-negative" % w)
        cx, lx = small(w, 1, 0, "--corrupt-oracle")
        rx = result_of(lx)
        expect(cx != 0 and rx is not None and rx["failed"] > 0,
               "%s: a deliberately wrong oracle fails the run" % w)
    if failures:
        die("%d selftest check(s) failed" % len(failures), 1)
    print("selftest: all checks passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if a.selftest:
        selftest()
    elif a.workload is None:
        ap.error("--workload is required")
    else:
        main_run(a)


if __name__ == "__main__":
    main()
