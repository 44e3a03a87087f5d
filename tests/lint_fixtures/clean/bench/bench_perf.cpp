// A bench case and a bench_perf leg table, both named in EXPERIMENTS.md.
CGC_BENCH("fixture_case", cgc::bench::CaseKind::kFigure, "fixture") {}

const Leg kLegs[] = {
    {"fixture", run_fixture, "the fixture leg"},
};
