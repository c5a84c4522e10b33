#pragma once

/// \file result.h
/// `Result<T>` — a value-or-Status, the return type of fallible factory
/// functions (e.g. index builders). Modeled after arrow::Result.

#include <utility>
#include <variant>

#include "common/logging.h"
#include "common/status.h"

namespace genie {

/// [[nodiscard]] like Status: ignoring a Result drops its error.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value.
  Result(T value) : repr_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  /// Implicit from a non-OK status. Constructing from an OK status is a
  /// programming error.
  Result(Status status) : repr_(std::move(status)) {  // NOLINT
    GENIE_CHECK(!std::get<Status>(repr_).ok())
        << "Result<T> constructed from OK status";
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk = Status::OK();
    return ok() ? kOk : std::get<Status>(repr_);
  }

  /// Value access. Calling on an error Result is a programming error.
  const T& ValueOrDie() const& {
    GENIE_CHECK(ok()) << "ValueOrDie on error: " << status().ToString();
    return std::get<T>(repr_);
  }
  T& ValueOrDie() & {
    GENIE_CHECK(ok()) << "ValueOrDie on error: " << status().ToString();
    return std::get<T>(repr_);
  }
  T&& ValueOrDie() && {
    GENIE_CHECK(ok()) << "ValueOrDie on error: " << status().ToString();
    return std::move(std::get<T>(repr_));
  }

  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  std::variant<Status, T> repr_;
};

}  // namespace genie

#define GENIE_CONCAT_IMPL(a, b) a##b
#define GENIE_CONCAT(a, b) GENIE_CONCAT_IMPL(a, b)

/// GENIE_ASSIGN_OR_RETURN(lhs, rexpr): evaluates `rexpr` (a Result<T>); on
/// error returns the Status, otherwise assigns the value to `lhs`.
#define GENIE_ASSIGN_OR_RETURN(lhs, rexpr)                      \
  auto GENIE_CONCAT(_genie_result_, __LINE__) = (rexpr);        \
  if (!GENIE_CONCAT(_genie_result_, __LINE__).ok())             \
    return GENIE_CONCAT(_genie_result_, __LINE__).status();     \
  lhs = std::move(GENIE_CONCAT(_genie_result_, __LINE__)).ValueOrDie()
