"""Self-checks of the benchmark's metric schema.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Checks that every name in BENCHMARK.json is well formed and used once,
that each per-layer metric names the end-to-end metric it should move,
and that the report validator refuses a missing or extra metric, one
measurement under two names, and a percentile without ten samples beyond
it. Needs no build.
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import schema  # noqa: E402


def good_report(trace):
    """A well-formed report: every declared metric, distinct values."""
    metrics = {}
    for i, (name, spec) in enumerate(schema.declared(trace).items()):
        metrics[name] = {"value": 1.0 + i, "unit": spec["unit"],
                         "samples": 200}
    return metrics


class SchemaTest(unittest.TestCase):
    def test_command_and_workloads(self):
        self.assertEqual(schema.BENCHMARK["command"],
                         ["python3", "perfbench/run.py"])
        self.assertEqual(len(schema.WORKLOADS), len(set(schema.WORKLOADS)))
        self.assertTrue(2 <= len(schema.WORKLOADS) <= 8)

    def test_names_and_units(self):
        names = (list(schema.END_TO_END) + list(schema.PER_LAYER) +
                 schema.WORKLOADS)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(
            len(schema.END_TO_END) + len(schema.PER_LAYER),
            len(schema.BENCHMARK["end_to_end"]) +
            len(schema.BENCHMARK["per_layer"]))
        for name in names:
            self.assertRegex(name, schema.NAME_RE)
        for spec in list(schema.END_TO_END.values()) + list(
                schema.PER_LAYER.values()):
            self.assertRegex(spec["unit"], schema.UNIT_RE)
            self.assertIn(spec["better"], ("lower", "higher"))
        for spec in schema.END_TO_END.values():
            self.assertGreater(spec["bound"], 0)
            self.assertLessEqual(spec["bound"], 0.25)
        self.assertEqual(schema.END_TO_END["setup_s"]["bound"],
                         max(s["bound"] for s in schema.END_TO_END.values()))

    def test_percentiles_are_declared_metrics(self):
        for name, q in schema.PERCENTILES.items():
            self.assertIn(name, {**schema.END_TO_END, **schema.PER_LAYER})
            self.assertTrue(0 < q < 1)

    def test_each_layer_metric_names_an_end_to_end_metric(self):
        self.assertEqual(set(schema.LAYER_MOVES), set(schema.PER_LAYER))
        for layer, moves in schema.LAYER_MOVES.items():
            with self.subTest(metric=layer):
                self.assertIn(moves, schema.END_TO_END)

    def test_well_formed_reports_pass(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                self.assertEqual(schema.validate(trace, good_report(trace)),
                                 [])

    def test_missing_and_extra_metrics_are_refused(self):
        metrics = good_report(0)
        del metrics["select_cpu_s"]
        metrics["service.cover_ms"] = {"value": 9.0, "unit": "ms",
                                       "samples": 30}
        problems = schema.validate(0, metrics)
        self.assertTrue(any(p.startswith("select_cpu_s:") for p in problems))
        self.assertTrue(any(p.startswith("service.cover_ms:")
                            for p in problems))

    def test_one_measurement_under_two_names_is_refused(self):
        metrics = good_report(0)
        metrics["evaluate_cpu_s"]["value"] = metrics["select_cpu_s"]["value"]
        self.assertTrue(schema.validate(0, metrics))
        metrics = good_report(0)
        metrics["warm_query_cpu_p50_ms"]["value"] = 753.7
        metrics["select_cpu_s"]["value"] = 0.7537
        self.assertTrue(schema.validate(0, metrics))

    def test_percentile_needs_ten_samples_beyond_it(self):
        for name, samples, ok in (("warm_query_cpu_p90_ms", 99, False),
                                  ("warm_query_cpu_p90_ms", 100, True),
                                  ("repair_query_cpu_p50_ms", 19, False),
                                  ("repair_query_cpu_p50_ms", 20, True)):
            metrics = good_report(0)
            metrics[name]["samples"] = samples
            with self.subTest(metric=name, samples=samples):
                self.assertEqual(schema.validate(0, metrics) == [], ok)

    def test_bad_values_and_units_are_refused(self):
        for field, value in (("value", 0.0), ("value", None),
                             ("unit", "ms")):
            metrics = good_report(0)
            metrics["select_cpu_s"][field] = value
            with self.subTest(field=field, value=value):
                self.assertTrue(schema.validate(0, metrics))


if __name__ == "__main__":
    unittest.main()
