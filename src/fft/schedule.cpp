#include "fft/schedule.hpp"

#include <sstream>
#include <stdexcept>

#include "util/bit_ops.hpp"
#include "util/json.hpp"

namespace c64fft::fft {

namespace {

Precision parse_precision(const std::string& name, std::size_t index) {
  if (name == "f32") return Precision::kF32;
  if (name == "f64") return Precision::kF64;
  throw std::invalid_argument("schedule entry " + std::to_string(index) +
                              ": unknown precision \"" + name + "\"");
}

std::uint64_t field_u64(const util::JsonValue& entry, const char* key,
                        std::size_t index) {
  const util::JsonValue* v = entry.find(key);
  if (v == nullptr || !v->is_number())
    throw std::invalid_argument("schedule entry " + std::to_string(index) +
                                ": missing numeric field \"" + key + "\"");
  const double d = v->as_number();
  if (d < 0 || d != static_cast<double>(static_cast<std::uint64_t>(d)))
    throw std::invalid_argument("schedule entry " + std::to_string(index) +
                                ": field \"" + key +
                                "\" is not a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

ScheduleSet parse_schedule_doc(const util::JsonValue& doc);

}  // namespace

void ScheduleSet::insert(const TunedSchedule& s) {
  for (TunedSchedule& e : entries_) {
    if (e.n == s.n && e.precision == s.precision && e.isa == s.isa) {
      e = s;
      return;
    }
  }
  entries_.push_back(s);
}

std::optional<TunedSchedule> ScheduleSet::find(std::uint64_t n,
                                               Precision precision,
                                               util::IsaLevel isa) const {
  for (const TunedSchedule& e : entries_)
    if (e.n == n && e.precision == precision && e.isa == isa) return e;
  return std::nullopt;
}

std::string ScheduleSet::to_json() const {
  std::ostringstream out;
  out << "{\n  \"version\": 1,\n  \"schedules\": [";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const TunedSchedule& e = entries_[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"n\": " << e.n << ", \"precision\": \""
        << fft::to_string(e.precision) << "\", \"isa\": \""
        << util::to_string(e.isa) << "\", \"fuse_log2\": " << e.fuse_log2;
    // Emitted only when tuned: files without hierarchical knobs stay
    // byte-identical to the pre-hierarchical format.
    if (e.hier_leaf_log2 != 0)
      out << ", \"hier_leaf_log2\": " << e.hier_leaf_log2;
    if (e.hier_block_rows != 0)
      out << ", \"hier_block_rows\": " << e.hier_block_rows;
    out << "}";
  }
  out << (entries_.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return out.str();
}

ScheduleSet ScheduleSet::from_json(const std::string& text) {
  return parse_schedule_doc(util::json_parse(text));
}

ScheduleSet ScheduleSet::load_file(const std::string& path) {
  return parse_schedule_doc(util::json_parse_file(path));
}

namespace {

ScheduleSet parse_schedule_doc(const util::JsonValue& doc) {
  if (!doc.is_object())
    throw std::invalid_argument("schedule file: top level is not an object");
  const util::JsonValue* list = doc.find("schedules");
  if (list == nullptr || !list->is_array())
    throw std::invalid_argument("schedule file: missing \"schedules\" array");

  ScheduleSet set;
  std::size_t index = 0;
  for (const util::JsonValue& entry : list->items()) {
    if (!entry.is_object())
      throw std::invalid_argument("schedule entry " + std::to_string(index) +
                                  ": not an object");
    TunedSchedule s;
    s.n = field_u64(entry, "n", index);
    if (s.n == 0 || !util::is_pow2(s.n))
      throw std::invalid_argument("schedule entry " + std::to_string(index) +
                                  ": n must be a power of two");

    const util::JsonValue* prec = entry.find("precision");
    if (prec == nullptr || !prec->is_string())
      throw std::invalid_argument("schedule entry " + std::to_string(index) +
                                  ": missing string field \"precision\"");
    s.precision = parse_precision(prec->as_string(), index);

    const util::JsonValue* isa = entry.find("isa");
    if (isa == nullptr || !isa->is_string())
      throw std::invalid_argument("schedule entry " + std::to_string(index) +
                                  ": missing string field \"isa\"");
    const std::optional<util::IsaLevel> level =
        util::parse_isa_name(isa->as_string());
    if (!level || isa->as_string() == "auto")
      throw std::invalid_argument("schedule entry " + std::to_string(index) +
                                  ": unknown isa \"" + isa->as_string() + "\"");
    s.isa = *level;

    s.fuse_log2 = static_cast<std::uint32_t>(field_u64(entry, "fuse_log2", index));
    if (s.fuse_log2 != 0 && s.fuse_log2 != 2 && s.fuse_log2 != 3)
      throw std::invalid_argument("schedule entry " + std::to_string(index) +
                                  ": fuse_log2 must be 0, 2, or 3");

    // Optional hierarchical knobs; absent (the pre-hierarchical file
    // format) means 0 = planner default. Same clamp ranges the planner
    // itself enforces, so a loaded value can never build a degenerate
    // split.
    if (entry.find("hier_leaf_log2") != nullptr) {
      s.hier_leaf_log2 =
          static_cast<std::uint32_t>(field_u64(entry, "hier_leaf_log2", index));
      if (s.hier_leaf_log2 != 0 &&
          (s.hier_leaf_log2 < 4 || s.hier_leaf_log2 > 16))
        throw std::invalid_argument("schedule entry " + std::to_string(index) +
                                    ": hier_leaf_log2 out of range [4, 16]");
    }
    if (entry.find("hier_block_rows") != nullptr) {
      s.hier_block_rows =
          static_cast<std::uint32_t>(field_u64(entry, "hier_block_rows", index));
      if (s.hier_block_rows > 4096)
        throw std::invalid_argument("schedule entry " + std::to_string(index) +
                                    ": hier_block_rows out of range [0, 4096]");
    }

    set.insert(s);
    ++index;
  }
  return set;
}

}  // namespace

}  // namespace c64fft::fft
