#!/usr/bin/env python3
"""Build and run the acstab benchmark from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The first form builds bin/acstab.exe and perfbench/acbench.exe with dune
(in the tree's own _build directory) and runs one pass of one workload;
the last stdout line is the result object. --smoke runs one short pass of
every workload, untraced and traced, and checks the output against
BENCHMARK.json (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

ACBENCH = os.path.join("_build", "default", "perfbench", "acbench.exe")
ACSTAB = os.path.join("_build", "default", "bin", "acstab.exe")
SOURCES = ["dune-project", "lib", "bin", "circuits", "golden",
           os.path.join("perfbench", "dune")]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Long enough for the serve pass to get past its opening amplifier array.
SMOKE_SECONDS = 8


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_tree():
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("not an acstab source tree (missing %s); run from the "
             "repository root" % ", ".join(missing))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True, timeout=10)
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/acbench.exe",
             "bin/acstab.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    except OSError as e:
        fail("cannot run dune: %s" % e, 3)
    if r.returncode != 0:
        fail("build failed", 3)


def pin_to_one_cpu():
    """Run the pass, and the serve daemon it spawns, on one CPU (the
    highest it may use, the one least likely to take interrupts): the
    calibration kernel then times the core the program runs on. Both
    run one pool worker, so nothing waits for a second core."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def run_pass(workload, seed, seconds, trace, commit, extra=()):
    """One acbench pass in its own process group; returns (code, stdout)."""
    cmd = [ACBENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--acstab", ACSTAB, "--commit", commit, *extra]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, start_new_session=True,
                         preexec_fn=pin_to_one_cpu)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        return (124, "")
    finally:
        # Nothing the pass started (the serve daemon) may outlive it.
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return (p.returncode, out)


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]), (json.loads(lines[-2]) if len(lines) > 1 else {})


def smoke(commit):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in [(0, "end_to_end"), (1, "per_layer")]:
            code, out = run_pass(name, 1, SMOKE_SECONDS, trace, commit)
            if code != 0:
                problems.append("%s trace=%d: exit %d" % (name, trace, code))
                continue
            res, prov = last_json(out)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            missing = [k for k, v in res["metrics"].items()
                       if not isinstance(v["value"], (int, float))]
            if missing:
                problems.append("%s trace=%d: no value for %s"
                                % (name, trace, missing))
            if got != want:
                problems.append("%s trace=%d: metrics %s, expected %s"
                                % (name, trace, sorted(got.items()),
                                   sorted(want.items())))
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s trace=%d: %d of %d failed"
                                % (name, trace, res["failed"], res["attempted"]))
            if trace == 1 and res["metrics"]["error_rate"]["value"] != 0:
                problems.append("%s: error_rate is not 0" % name)
            p = prov.get("provenance", {})
            if name == "serve_mixed" and not p.get("socket_removed_by_daemon"):
                problems.append("serve_mixed: daemon left its socket behind")
            print("smoke %s trace=%d: ok=%s attempted=%d"
                  % (name, trace, res["correct"], res["attempted"]))
    # A serve pass that fails after the daemon is up must still shut the
    # daemon down and leave no socket behind.
    code, out = run_pass("serve_mixed", 1, SMOKE_SECONDS, 0, commit,
                         ["--abort-after-setup"])
    if code == 0:
        problems.append("aborted serve pass exited 0")
    out_dir = os.path.join("perfbench", "out")
    leftovers = [f for f in os.listdir(out_dir) if f.endswith(".sock")] \
        if os.path.isdir(out_dir) else []
    if leftovers:
        problems.append("sockets left behind: %s" % leftovers)
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                with open("/proc/%s/cmdline" % pid, "rb") as f:
                    if b"acbench-" in f.read():
                        problems.append("daemon still running: pid %s" % pid)
            except OSError:
                pass
    print("smoke aborted serve pass: exit %d, sockets left %d" % (code, len(leftovers)))
    for p in problems:
        print("smoke FAILED: " + p, file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    check_tree()
    build()
    commit = source_id()
    if args.smoke:
        sys.exit(smoke(commit))
    if not args.workload:
        fail("--workload is required")
    code, out = run_pass(args.workload, args.seed, args.seconds, args.trace,
                         commit)
    if code != 0:
        sys.stderr.write(out)
        fail("pass failed (exit %d)" % code, 1)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
