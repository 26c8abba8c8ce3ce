// Strict parsing of the HEXLLM_* environment knobs.
//
// Unset or empty keeps the caller's configured value. Any other value must parse in full
// and lie in range; otherwise the run stops with a CHECK failure naming the variable,
// instead of silently running with a value nobody asked for.
#ifndef SRC_BASE_ENV_H_
#define SRC_BASE_ENV_H_

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <system_error>

#include "src/base/check.h"

namespace hexllm {

// The knob's text, or nullptr when it is unset or empty.
inline const char* EnvKnob(const char* name) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? s : nullptr;
}

[[noreturn]] inline void BadEnvKnob(const char* name, const char* value,
                                    const std::string& expected) {
  const std::string msg = std::string(name) + "=\"" + value + "\": expected " + expected;
  CheckFailed("malformed environment knob", __FILE__, __LINE__, msg.c_str());
}

// Parses all of `s` as a T; false on any leftover or out-of-range text.
template <typename T>
bool ParseAll(const char* s, T* v) {
  const char* end = s + std::strlen(s);
  const auto [ptr, ec] = std::from_chars(s, end, *v);
  return ec == std::errc() && ptr == end;
}

// An integer knob >= `min`.
inline int EnvInt(const char* name, int configured, int min) {
  const char* s = EnvKnob(name);
  int v = 0;
  if (s != nullptr && (!ParseAll(s, &v) || v < min)) {
    BadEnvKnob(name, s, "an integer >= " + std::to_string(min));
  }
  return s != nullptr ? v : configured;
}

// A finite number knob > 0.
inline double EnvPositive(const char* name, double configured) {
  const char* s = EnvKnob(name);
  double v = 0.0;
  if (s != nullptr && (!ParseAll(s, &v) || !std::isfinite(v) || v <= 0.0)) {
    BadEnvKnob(name, s, "a finite number > 0");
  }
  return s != nullptr ? v : configured;
}

// A knob naming one of `choices`; returns its index.
inline int EnvChoice(const char* name, int configured,
                     std::initializer_list<const char*> choices) {
  const char* s = EnvKnob(name);
  if (s == nullptr) {
    return configured;
  }
  std::string expected = "one of";
  int i = 0;
  for (const char* c : choices) {
    if (std::strcmp(s, c) == 0) {
      return i;
    }
    expected += std::string(i++ == 0 ? " " : "|") + c;
  }
  BadEnvKnob(name, s, expected);
}

}  // namespace hexllm

#endif  // SRC_BASE_ENV_H_
