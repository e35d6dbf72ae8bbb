#!/usr/bin/env python3
"""TDmatch benchmark: runs one workload in one JVM and prints its result.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload audit-msp --seed 0 --seconds 4 --trace 0

The first call builds the repository's main sources together with the
benchmark's Scala code (`perfbench/build.sbt`, sbt offline) into
`perfbench/target`; later calls reuse the build while the sources are
unchanged. It then starts one JVM (`perfbench.Main`) per workload
(`--workload all` runs each in turn) that sets up the workload and either

  --trace 0  times one run of the public pipeline (`Tables.mergeFor` +
             `TDMatch.run`) and repeated ranking passes, untraced, and
             reports the end-to-end metrics; or
  --trace 1  times each layer's public function in pipeline order, with a
             Spark listener counting jobs, tasks and shuffle bytes, and
             reports the per-layer metrics.

Every pipeline run is checked (ranking structure, an in-process cosine
top-k oracle, an independent MRR and HasPositive@5, and a checker
self-test); the traced run also checks the graph after each stage. The
last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Run facts (machine, seeds,
graph sizes) are printed on the line before it.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = HERE / "target"
CLASSES = TARGET / "scala-2.13" / "classes"
STAMP = TARGET / "build.stamp"

# BENCHMARK.json owns the workload and metric lists and the units.
SPEC = ROOT / "BENCHMARK.json"

# Process limits: the first call of a checkout may build.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "-Xmx3g"

# Value of a metric whose layer the workload bypasses.
NOT_RUN = -1

# JDK 17 module opens that spark-submit injects; Kryo and MLlib need them.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def sources():
    dirs = [ROOT / "src" / "main" / "scala", HERE / "src"]
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in dirs:
        files += sorted(p for p in d.rglob("*.scala"))
    return files


def build():
    """Compiles with sbt unless the sources match the last build."""
    digest = hashlib.sha256()
    for f in sources():
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    stamp = digest.hexdigest()
    if STAMP.exists() and STAMP.read_text() == stamp and CLASSES.is_dir():
        return
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt not found on PATH")
    cmd = [sbt, "--batch", "-Dsbt.server.autostart=false", "-Dsbt.log.noformat=true", "compile"]
    run_child(cmd, HERE, BUILD_TIMEOUT_S, sys.stderr)
    TARGET.mkdir(exist_ok=True)
    STAMP.write_text(stamp)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            fail("set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars"
    if not jars.is_dir():
        fail(f"no Spark jars under {home}")
    return jars


def run_child(cmd, cwd, timeout, stdout, env=None):
    """Runs `cmd` in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=stdout, stderr=sys.stderr, env=env,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} exceeded {timeout} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        fail(f"{Path(cmd[0]).name} exited with {proc.returncode}")
    return out


def run_jvm(args):
    workdir = TARGET / "run"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    java = Path(os.environ["JAVA_HOME"]) / "bin" / "java" if "JAVA_HOME" in os.environ else "java"
    cmd = [str(java), HEAP]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in OPENS]
    cmd += [
        "-Djdk.reflect.useDirectMethodHandleAccessor=false",
        "-Dspark.driver.host=127.0.0.1",
        f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
        f"-Djava.io.tmpdir={workdir / 'tmp'}",
        f"-Dspark.sql.warehouse.dir={workdir / 'warehouse'}",
        "-cp", f"{CLASSES}{os.pathsep}{spark_jars() / '*'}",
        "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        env = dict(os.environ, SPARK_LOCAL_DIRS=str(workdir / "tmp"))
        out = run_child(cmd, workdir, RUN_TIMEOUT_S, subprocess.PIPE, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        fail("the benchmark JVM printed no result")
    return json.loads(lines[-1][len("RESULT "):])


def result(raw, declared):
    """Keeps the declared metrics, with their units; marks bypassed layers."""
    got = raw["metrics"]
    bypassed = set(raw["facts"].get("layers_bypassed", "").split())
    baseline = "baseline_master" in raw["facts"]
    errors = list(raw["errors"])
    metrics, shown = {}, []
    for m in declared:
        name, unit = m["name"], m["unit"]
        layer, _, field = name.partition(".")
        if layer in bypassed or (field == "speedup_1t" and not baseline):
            value, text = NOT_RUN, "not run"
        elif isinstance(got.get(name), (int, float)):
            value = got[name]
            text = f"{value:.6g}"
        else:
            errors.append(f"metric {name} missing or not a number")
            continue
        metrics[name] = {"value": value, "unit": unit}
        shown.append((name, text, unit))
    return metrics, shown, errors


def main():
    if not SPEC.is_file():
        fail(f"no {SPEC.name} at {ROOT}")
    spec = json.loads(SPEC.read_text())
    workloads = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads + ("all",),
                    help="'all' runs every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=4)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit so that run_child kills the JVM first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "main" / "scala" / "repro" / "pipeline" / "TDMatch.scala").is_file():
        fail(f"{ROOT} holds no TDmatch sources to benchmark")
    build()
    names = workloads if args.workload == "all" else (args.workload,)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        args.workload = name
        raw = run_jvm(args)
        metrics, shown, errors = result(raw, declared)
        print(f"== {name}: {raw['failed']} of {raw['attempted']} runs failed")
        for metric, value, unit in shown:
            print(f"{metric:32} {value:>14} {unit}")
        for e in errors:
            print(f"error: {e}")
        print("facts " + json.dumps(raw["facts"], sort_keys=True))
        summary["correct"] &= not errors and raw["failed"] == 0
        summary["attempted"] += raw["attempted"]
        summary["failed"] += raw["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
