"""Experiment drivers: one module per table/figure of the paper's evaluation.

========================  ======================================================
module                    paper artefact
========================  ======================================================
``datasets``              Table I  — dataset statistics
``config``                Table II — parameter defaults (scaled)
``exp1_partition_number`` Figure 10 — effect of partition number ``k`` (PMHL)
``exp2_index_performance`` Figure 11 — t_c, |L|, t_q, t_u comparison
``exp3_throughput``       Figure 12 — throughput comparison across datasets
``exp4_qps_evolution``    Figure 13 — QPS evolution over the update interval
``exp5_parameters``       Figure 14 — effect of |U|, δt, R*_q
``exp6_threads``          Figure 15 — effect of thread number ``p``
``exp7_ke``               Figure 17 — effect of ``k_e`` (PostMHL)
``exp8_bandwidth``        Figure 18 — effect of bandwidth ``τ`` (PostMHL)
``exp9_live_serving``     measured serving QPS vs the analytic λ*_q bound
``ablations``             A1 cross-boundary strategy, A2 multi-stage scheme
========================  ======================================================

Every module exposes ``run(config, quick)`` returning a list of row
dictionaries; ``repro.experiments.runner.print_experiment`` renders them.
"""

from repro.experiments import (
    ablations,
    datasets,
    exp1_partition_number,
    exp2_index_performance,
    exp3_throughput,
    exp4_qps_evolution,
    exp5_parameters,
    exp6_threads,
    exp7_ke,
    exp8_bandwidth,
    exp9_live_serving,
)
from repro.experiments.config import DEFAULT_CONFIG, PAPER_TABLE_II, ExperimentConfig
from repro.registry import create_index, experiment_methods, spec_from_config
from repro.experiments.runner import (
    IndexPerformance,
    format_table,
    measure_index_performance,
    measure_throughput,
    print_experiment,
)

#: Mapping of experiment identifier to its driver module.
EXPERIMENTS = {
    "table1": datasets,
    "exp1": exp1_partition_number,
    "exp2": exp2_index_performance,
    "exp3": exp3_throughput,
    "exp4": exp4_qps_evolution,
    "exp5": exp5_parameters,
    "exp6": exp6_threads,
    "exp7": exp7_ke,
    "exp8": exp8_bandwidth,
    "exp9": exp9_live_serving,
    "ablations": ablations,
}

__all__ = [
    "ExperimentConfig",
    "DEFAULT_CONFIG",
    "PAPER_TABLE_II",
    "create_index",
    "experiment_methods",
    "spec_from_config",
    "measure_index_performance",
    "measure_throughput",
    "IndexPerformance",
    "format_table",
    "print_experiment",
    "EXPERIMENTS",
]
