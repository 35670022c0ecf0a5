#pragma once

#include <gtest/gtest.h>

#include "linalg/kernels_backend.h"

namespace x2vec {

/// Pins the generic kernel backend before any test of the binary runs.
/// Golden digests pin generic's exact operation order, so a test binary
/// that includes this header gives the same verdicts whatever
/// X2VEC_KERNEL_BACKEND its caller's environment sets. Tests that switch
/// backends restore generic before they return.
class GenericBackendEnvironment : public ::testing::Environment {
 public:
  void SetUp() override {
    linalg::SetKernelBackend(linalg::KernelBackend::kGeneric);
  }
};

inline ::testing::Environment* const kGenericBackendEnvironment =
    ::testing::AddGlobalTestEnvironment(new GenericBackendEnvironment);

}  // namespace x2vec
