// A bench case EXPERIMENTS.md never names, and a leg it does.
CGC_BENCH("undocumented_case", cgc::bench::CaseKind::kFigure, "fixture") {}

const Leg kLegs[] = {
    {"fixture", run_fixture, "the fixture leg"},
};
