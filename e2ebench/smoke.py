#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in a short configuration.

    python3 e2ebench/smoke.py

Run it from the repository root (it builds the binary on first use). For
every workload it checks that:

  * a timed run (--trace 0) prints exactly the end-to-end metrics named in
    BENCHMARK.json, each with its unit, and counts no failure;
  * a traced run (--trace 1) prints exactly the per-layer metrics, each
    with its unit, and counts no failure;
  * a planted wrong expected verdict is counted as a failure;
  * the traced replay's spans nest (no negative self time), and per
    document the layer self times plus the reported remainder add up to
    the document's time, matching replay.doc_ms and replay.remainder_ms.

It also checks that run.py fails without printing a result when the
product sources are missing. Exits non-zero on the first failed check.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".bench_build", "e2ebench")
LAYERS = {"pdf", "features", "jsstatic", "instrument", "reader", "detector"}


def fail(message):
    sys.exit("smoke: FAIL: " + message)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--smoke"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                    proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(label, result, expected):
    got = result["metrics"]
    if set(got) != set(expected):
        fail("%s: metric names differ: missing %s, extra %s" % (
            label, sorted(set(expected) - set(got)),
            sorted(set(got) - set(expected))))
    for name, unit in expected.items():
        if got[name].get("unit") != unit:
            fail("%s: %s has unit %r, expected %r" % (
                label, name, got[name].get("unit"), unit))
        if not isinstance(got[name].get("value"), (int, float)):
            fail("%s: %s has no numeric value" % (label, name))
    if not result["correct"] or result["failed"] != 0:
        fail("%s: %d of %d operations failed" % (
            label, result["failed"], result["attempted"]))


def check_spans(workload, metrics):
    path = os.path.join(WORKDIR, "spans-%s.jsonl" % workload)
    with open(path) as f:
        spans = [json.loads(line) for line in f]
    child = [0] * len(spans)
    root = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
            root[i] = root[s["parent"]]
    docs = {}
    for i, s in enumerate(spans):
        self_ns = s["end_ns"] - s["start_ns"] - child[i]
        if self_ns < -1000:  # phase durations are rounded to whole ns
            fail("%s: span %d (%s) has negative self time" % (
                workload, i, s["name"]))
        r = spans[root[i]]
        if r["name"] != "doc":
            continue  # off-path probes are outside the document timeline
        doc = docs.setdefault(r["doc"], {"doc": 0, "layers": 0, "rest": 0})
        if s["name"] == "doc":
            doc["doc"] = s["end_ns"] - s["start_ns"]
        key = "layers" if s["name"] in LAYERS else "rest"
        doc[key] += self_ns
    for d in docs.values():
        if abs(d["layers"] + d["rest"] - d["doc"]) > 1000:
            fail("%s: layer self times + remainder != document time" %
                 workload)
    n = len(docs)
    doc_ms = sum(d["doc"] for d in docs.values()) / n / 1e6
    rest_ms = sum(d["rest"] for d in docs.values()) / n / 1e6
    for name, value in (("replay.doc_ms", doc_ms),
                        ("replay.remainder_ms", rest_ms)):
        if abs(metrics[name]["value"] - value) > 1e-3 * max(value, 1e-3):
            fail("%s: %s is %g, spans give %g" % (
                workload, name, metrics[name]["value"], value))


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, os.path.join(
        os.path.basename(HERE), "run.py"), "--workload", "scan-office",
        "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py without product sources exited %d with output %r" % (
            proc.returncode, proc.stdout[-200:]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        check_metrics(w + " timed", run(w, 0), e2e)
        traced = run(w, 1)
        check_metrics(w + " traced", traced, layers)
        check_spans(w, traced["metrics"])
        planted = run(w, 0, "--plant-wrong-verdict")
        if planted["correct"] or planted["failed"] < 1:
            fail(w + ": a planted wrong verdict was not counted as a failure")
        print("smoke: %s ok" % w, flush=True)
    check_bare_directory()
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
