"""run.py: BENCHMARK.json names the same workloads and metrics, host times
are scaled to the reference core speed, and every attempted job, crashed or
failed, is accounted for."""

import json
import os
import unittest

import run


class SpecTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_end_to_end_metrics_match(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["end_to_end"]], run.END_TO_END)

    def test_per_layer_metrics_match(self):
        self.assertEqual([(m["name"], m["unit"])
                          for m in self.spec["per_layer"]], run.PER_LAYER)

    def test_default_window_is_run_seconds(self):
        self.assertEqual(run.RUN_SECONDS, self.spec["run_seconds"])

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class NormalizeTest(unittest.TestCase):
    def test_times_scale_by_reference_over_burst(self):
        job = {"job_s": 2.0, "cpu_s": 2.2, "setup_s": 0.1, "ctor_s": 0.05,
               "install_s": 0.01, "datagen_s": 0.04, "burst_ns": 200.0,
               "window_burst_ns": 400.0,
               "gc_host": {"host_ns": 1e9}}
        run.normalize([job], 100.0)
        self.assertEqual(job["speed"], 0.5)
        self.assertEqual(job["job_ref_s"], 1.0)
        self.assertEqual(job["cpu_ref_s"], 1.1)
        self.assertEqual(job["gc_ref_s"], 0.5)
        self.assertEqual(job["setup_ref_s"], 0.025)
        self.assertEqual(job["ctor_ref_s"], 0.0125)

    def test_a_job_without_probe_samples_keeps_raw_times(self):
        job = {"job_s": 2.0, "cpu_s": 2.0, "setup_s": 0.1, "ctor_s": 0.05,
               "install_s": 0.01, "datagen_s": 0.04, "burst_ns": 0.0,
               "window_burst_ns": 0.0}
        run.normalize([job, {"error": "threw"}], 100.0)
        self.assertEqual(job["job_ref_s"], 2.0)
        self.assertEqual(job["setup_ref_s"], 0.1)


EXPECTED = {"kind": "expected", "seed": 1, "checksum": 5.0,
            "rel_tolerance": 0.0, "source": "host reference",
            "reference_burst_ns": 100.0}


def job(index, traced=False, checksum=5.0):
    return {"kind": "job", "index": index, "warmup": index == 0,
            "traced": traced, "setup_s": 0.1, "ctor_s": 0.05,
            "install_s": 0.01, "datagen_s": 0.04, "job_s": 1.0, "cpu_s": 1.0,
            "burst_ns": 100.0, "window_burst_ns": 100.0, "records": 1000,
            "checksum": checksum,
            "gc_host": {"minor_calls": 1, "major_calls": 0, "host_ns": 1e8,
                        "executor_calls": 0},
            "registry": {"gc.major_gcs": 1, "time.total_ns": 2e6,
                         "time.gc_ns": 1e6, "energy.total_joules": 0.5,
                         "memsim.cache_hits": 10}}


def span(ident, index, name, start, end, parent=0):
    return {"id": ident, "parent": parent, "job": index, "name": name,
            "detail": "", "start_ns": start, "end_ns": end}


class EvaluateTest(unittest.TestCase):
    def test_a_crashed_job_counts_as_attempted_and_failed(self):
        events = [job(0), job(1), job(2)]  # killed by a signal, no "end"
        failures = run.runner_outcome(events, -11, False)
        self.assertEqual(failures, ["job runner exited with -11"])
        jobs = [e for e in events if e["kind"] == "job"]
        result, more, _ = run.evaluate("cc_tight_heap", EXPECTED, jobs,
                                       1024, None)
        self.assertEqual(result["attempted"], 4)
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["metrics"]["ok_frac"]["value"], 0.75)
        self.assertTrue(any("job -1" in f for f in more))

    def test_a_runner_that_ended_adds_no_job(self):
        events = [job(0), job(1), {"kind": "end"}]
        self.assertEqual(run.runner_outcome(events, 0, False), [])
        self.assertEqual(run.runner_outcome(events, 2, False),
                         ["job runner exited with 2"])
        self.assertEqual(len(events), 3)

    def test_a_killed_job_counts_as_failed(self):
        events = [job(0)]
        run.runner_outcome(events, -9, True)
        self.assertEqual(events[-1]["error"].split(" ")[:3],
                         ["a", "job", "exceeded"])

    def test_spans_of_failed_traced_jobs_are_left_out(self):
        jobs = [job(0), job(1), job(2, traced=True),
                job(3), job(4, traced=True, checksum=6.0)]
        spans = [span(1, 2, "job", 0, 100),
                 span(2, 2, "rdd.action", 10, 90, parent=1),
                 span(3, 4, "job", 200, 400),
                 span(4, 4, "rdd.action", 210, 390, parent=3)]
        result, failures, notes = run.evaluate("cc_tight_heap", EXPECTED,
                                               jobs, 1024, spans)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        metrics = result["metrics"]
        self.assertEqual(metrics["rdd.actions"]["value"], 1)
        self.assertEqual(metrics["trace.traced_jobs"]["value"], 1)
        self.assertAlmostEqual(metrics["rdd.action_self_s.p50"]["value"],
                               80e-9)


if __name__ == "__main__":
    unittest.main()
