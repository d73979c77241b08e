// The one JSON document path every telemetry exporter shares: value
// builders and number spelling on the way out, a minimal recursive-descent
// parser on the way in (so tests can round-trip registry::export_json()
// and bench/ tools can consume it without an external dependency), and
// the result skeleton every document validator shares, schema check
// included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace cgp::telemetry {

/// Escapes and double-quotes `s` for inclusion in a JSON document.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Thrown by parse_json on malformed input.
class json_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed JSON value (numbers are doubles; objects preserve key order
/// not at all — std::map keeps them sorted, which is fine for lookups).
struct json_value {
  enum class kind { null, boolean, number, string, array, object };

  kind k = kind::null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<json_value> arr;
  std::map<std::string, json_value> obj;

  [[nodiscard]] bool is(kind want) const noexcept { return k == want; }

  /// Object member access; throws json_error when absent or not an object.
  [[nodiscard]] const json_value& at(const std::string& key) const;
  /// True when this is an object containing `key`.
  [[nodiscard]] bool has(const std::string& key) const noexcept;
};

/// Deepest array/object nesting parse_json accepts.  Far above any
/// exported document (a cgp.prof.v1 frame costs two levels), far below
/// what the recursive parser's stack can take.
inline constexpr std::size_t kMaxJsonDepth = 512;

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error).  Nesting deeper than kMaxJsonDepth throws
/// json_error instead of exhausting the stack.
[[nodiscard]] json_value parse_json(std::string_view text);

/// Serializes a parsed value back to a compact JSON document.  Numbers use
/// the shortest round-tripping representation (std::to_chars), objects
/// serialize in key order, so dump∘parse is a fixed point:
/// `dump_json(parse_json(dump_json(v))) == dump_json(v)` for any `v`
/// (non-finite numbers, which valid JSON cannot carry, serialize as null).
[[nodiscard]] std::string dump_json(const json_value& v);

/// How dump_json spells a number: the shortest text that reads back as
/// the same double (std::to_chars), or `null` when `v` is not finite.
/// Writers that stream their document (the registry, which must keep
/// 64-bit counters exact, and the Chrome trace) print every double with it.
[[nodiscard]] std::string json_number_text(double v);

/// Value builders for the exporters' documents.
[[nodiscard]] json_value json_number(double v);
[[nodiscard]] json_value json_string(std::string s);
[[nodiscard]] json_value json_bool(bool b);
[[nodiscard]] json_value json_object();
[[nodiscard]] json_value json_array();
/// An object that already carries its `"schema"` tag.
[[nodiscard]] json_value json_document(std::string schema);

/// Result skeleton shared by the document validators (trace, live,
/// flight, health, profile): each result type extends it with its own
/// counters.  The typed readers record a failure naming `where` and `key`
/// when the member is absent or of the wrong kind, so a tampered
/// `"t_ms":"soon"` is rejected rather than read as 0.
struct validation {
  static constexpr std::size_t kMaxErrors = 32;  ///< messages kept

  bool ok = true;
  std::vector<std::string> errors;

  /// Marks the document invalid and keeps `msg` (up to kMaxErrors).
  void fail(std::string msg);
  /// The kept messages, one per line.
  [[nodiscard]] std::string error_text() const;

  /// True when `doc` is an object whose "schema" is `want`; otherwise
  /// fails with "document is not a <want> document".  Validators stop
  /// when it fails: nothing else in an alien document is worth reading.
  [[nodiscard]] bool schema_field(const json_value& doc,
                                  const std::string& want);

  [[nodiscard]] bool num_field(const json_value& v, const std::string& key,
                               const std::string& where, double& dst);
  /// A number in [0, 2^64).
  [[nodiscard]] bool u64_field(const json_value& v, const std::string& key,
                               const std::string& where, std::uint64_t& dst);
  [[nodiscard]] bool str_field(const json_value& v, const std::string& key,
                               const std::string& where, std::string& dst);
  /// The member when it is an array (object), else nullptr after fail().
  [[nodiscard]] const json_value* arr_field(const json_value& v,
                                            const std::string& key,
                                            const std::string& where);
  [[nodiscard]] const json_value* obj_field(const json_value& v,
                                            const std::string& key,
                                            const std::string& where);
};

}  // namespace cgp::telemetry
