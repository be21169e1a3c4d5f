#include "tools/obs/trace_check.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

namespace upn::tools {

namespace {

/// Minimal recursive-descent JSON reader, sufficient for trace-event files.
/// On error, sets `error` and returns false from every parse_* method.
class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  std::string error;

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return fail(std::string{"expected '"} + c + "'");
  }

  bool peek(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') return fail("expected string");
    ++pos_;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return fail("truncated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            pos_ += 4;
            c = '?';  // span names never need non-ASCII; placeholder is fine
            break;
          }
          default: return fail("unknown escape");
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool parse_number(double& out) {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    try {
      out = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      return fail("malformed number");
    }
    return true;
  }

  /// Skips any JSON value (used for keys the checker does not interpret).
  bool skip_value() {
    skip_ws();
    if (pos_ >= text_.size()) return fail("truncated value");
    const char c = text_[pos_];
    if (c == '"') {
      std::string ignored;
      return parse_string(ignored);
    }
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++pos_;
      skip_ws();
      if (peek(close)) return consume(close);
      for (;;) {
        if (c == '{') {
          std::string key;
          if (!parse_string(key) || !consume(':')) return false;
        }
        if (!skip_value()) return false;
        if (peek(',')) {
          if (!consume(',')) return false;
          continue;
        }
        return consume(close);
      }
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 || c == '-' || c == '+') {
      double ignored = 0;
      return parse_number(ignored);
    }
    // true / false / null
    for (const char* literal : {"true", "false", "null"}) {
      const std::size_t len = std::string{literal}.size();
      if (text_.compare(pos_, len, literal) == 0) {
        pos_ += len;
        return true;
      }
    }
    return fail("unrecognized value");
  }

 private:
  bool fail(std::string why) {
    if (error.empty()) error = std::move(why) + " at offset " + std::to_string(pos_);
    return false;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Parses one event object, validating required fields.
bool parse_event(JsonReader& reader, TraceEvent& event, std::string& error) {
  if (!reader.consume('{')) return false;
  bool have_name = false, have_ph = false, have_ts = false, have_dur = false;
  std::string ph;
  if (!reader.peek('}')) {
    for (;;) {
      std::string key;
      if (!reader.parse_string(key) || !reader.consume(':')) return false;
      if (key == "name") {
        if (!reader.parse_string(event.name)) return false;
        have_name = true;
      } else if (key == "ph") {
        if (!reader.parse_string(ph)) return false;
        have_ph = true;
      } else if (key == "ts" || key == "dur" || key == "pid" || key == "tid") {
        double value = 0;
        if (!reader.parse_number(value)) return false;
        if (key == "ts") {
          event.ts_us = value;
          have_ts = true;
        } else if (key == "dur") {
          event.dur_us = value;
          have_dur = true;
        } else if (key == "pid") {
          event.pid = static_cast<std::uint32_t>(value);
        } else {
          event.tid = static_cast<std::uint32_t>(value);
        }
      } else {
        if (!reader.skip_value()) return false;
      }
      if (reader.peek(',')) {
        if (!reader.consume(',')) return false;
        continue;
      }
      break;
    }
  }
  if (!reader.consume('}')) return false;
  if (!have_name || event.name.empty()) error = "event missing name";
  else if (!have_ph) error = "event missing ph";
  else if (ph != "X") error = "unsupported event phase '" + ph + "' (only \"X\" complete events)";
  else if (!have_ts || event.ts_us < 0) error = "event missing or negative ts";
  else if (!have_dur || event.dur_us < 0) error = "event missing or negative dur";
  return error.empty();
}

}  // namespace

ParsedTrace parse_trace(const std::string& text) {
  ParsedTrace result;
  JsonReader reader{text};
  if (!reader.consume('{')) {
    result.error = "not a JSON object: " + reader.error;
    return result;
  }
  bool saw_events = false;
  if (!reader.peek('}')) {
    for (;;) {
      std::string key;
      if (!reader.parse_string(key) || !reader.consume(':')) {
        result.error = reader.error;
        return result;
      }
      if (key == "traceEvents") {
        saw_events = true;
        if (!reader.consume('[')) {
          result.error = "traceEvents is not an array: " + reader.error;
          return result;
        }
        if (!reader.peek(']')) {
          for (;;) {
            TraceEvent event;
            std::string event_error;
            if (!parse_event(reader, event, event_error)) {
              result.error = !event_error.empty()
                                 ? "event " + std::to_string(result.events.size()) + ": " +
                                       event_error
                                 : reader.error;
              return result;
            }
            result.events.push_back(std::move(event));
            if (reader.peek(',')) {
              if (!reader.consume(',')) {
                result.error = reader.error;
                return result;
              }
              continue;
            }
            break;
          }
        }
        if (!reader.consume(']')) {
          result.error = reader.error;
          return result;
        }
      } else {
        if (!reader.skip_value()) {
          result.error = reader.error;
          return result;
        }
      }
      if (reader.peek(',')) {
        if (!reader.consume(',')) {
          result.error = reader.error;
          return result;
        }
        continue;
      }
      break;
    }
  }
  if (!reader.consume('}')) {
    result.error = reader.error;
    return result;
  }
  if (!reader.at_end()) {
    result.error = "trailing content after the trace object";
    return result;
  }
  if (!saw_events) {
    result.error = "missing traceEvents array";
    return result;
  }
  result.ok = true;
  return result;
}

ParsedTrace parse_trace_file(const std::string& path) {
  std::ifstream file{path};
  if (!file) {
    ParsedTrace result;
    result.error = "cannot read " + path;
    return result;
  }
  std::ostringstream text;
  text << file.rdbuf();
  return parse_trace(text.str());
}

std::vector<PhaseSummary> summarize(const std::vector<TraceEvent>& events) {
  std::map<std::string, PhaseSummary> by_name;
  for (const TraceEvent& event : events) {
    PhaseSummary& phase = by_name[event.name];
    phase.name = event.name;
    ++phase.count;
    phase.total_us += event.dur_us;
    phase.max_us = std::max(phase.max_us, event.dur_us);
  }
  std::vector<PhaseSummary> phases;
  phases.reserve(by_name.size());
  for (auto& [name, phase] : by_name) phases.push_back(std::move(phase));
  std::sort(phases.begin(), phases.end(), [](const PhaseSummary& a, const PhaseSummary& b) {
    if (b.total_us < a.total_us) return true;
    if (a.total_us < b.total_us) return false;
    return a.name < b.name;
  });
  return phases;
}

void print_summary(std::ostream& out, const std::vector<PhaseSummary>& phases) {
  std::size_t name_width = 5;
  for (const PhaseSummary& phase : phases) {
    name_width = std::max(name_width, phase.name.size());
  }
  out << std::left << std::setw(static_cast<int>(name_width) + 2) << "phase"
      << std::right << std::setw(10) << "count" << std::setw(14) << "total_ms"
      << std::setw(14) << "mean_us" << std::setw(14) << "max_us" << "\n";
  out << std::fixed << std::setprecision(3);
  for (const PhaseSummary& phase : phases) {
    out << std::left << std::setw(static_cast<int>(name_width) + 2) << phase.name
        << std::right << std::setw(10) << phase.count << std::setw(14)
        << phase.total_us / 1000.0 << std::setw(14)
        << (phase.count == 0 ? 0.0 : phase.total_us / static_cast<double>(phase.count))
        << std::setw(14) << phase.max_us << "\n";
  }
}

}  // namespace upn::tools
