#pragma once

// The three workloads and the per-layer probes of the traced run.

#include <memory>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const Options& options);
/// Null unless the workload is node2vec_serial.
std::unique_ptr<Workload> MakeTrainingWorkload(const Options& options);
std::unique_ptr<Workload> MakeCollectionWorkload(const Options& options);
std::unique_ptr<Workload> MakeServingWorkload(const Options& options);

/// Per-layer probes: each times public calls into one group of library
/// layers, on the inputs of the workload that exercises them (generated
/// from `options.seed`), and adds its metrics to `result`. A traced run
/// calls all three, whichever workload it names, so that it reports every
/// per-layer metric.
void TrainingLayers(const Options& options, Result& result);
void CollectionLayers(const Options& options, Result& result);
void ServingLayers(const Options& options, Result& result);

/// Thread count of the parallel workloads: min(4, hardware threads).
int WorkloadThreads();

}  // namespace perfbench
