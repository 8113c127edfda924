#include "obs/profile.h"

#include <cstdio>
#include <sstream>

namespace quarry::obs {
namespace {

void JsonEscape(const std::string& in, std::string* out) {
  for (char c : in) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string FormatMicros(double micros) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", micros);
  return buf;
}

void NodeToText(const ProfileNode& node, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += node.op;
  *out += " ";
  *out += node.id;
  *out += "  rows_in=" + std::to_string(node.rows_in);
  *out += " rows_out=" + std::to_string(node.rows_out);
  *out += " wall=" + FormatMicros(node.wall_micros) + "us";
  if (node.attempts > 1) *out += " attempts=" + std::to_string(node.attempts);
  *out += "\n";
  for (const ProfileNode& child : node.children) {
    NodeToText(child, depth + 1, out);
  }
}

void NodeToJson(const ProfileNode& node, std::string* out) {
  *out += "{\"id\":\"";
  JsonEscape(node.id, out);
  *out += "\",\"op\":\"";
  JsonEscape(node.op, out);
  *out += "\",\"rows_in\":" + std::to_string(node.rows_in);
  *out += ",\"rows_out\":" + std::to_string(node.rows_out);
  *out += ",\"wall_micros\":" + FormatMicros(node.wall_micros);
  *out += ",\"attempts\":" + std::to_string(node.attempts);
  *out += ",\"children\":[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out += ",";
    NodeToJson(node.children[i], out);
  }
  *out += "]}";
}

}  // namespace

std::string RequestProfile::ToText() const {
  std::string out = "request " + std::to_string(request_id);
  out += " kind=" + kind;
  if (!lane.empty()) out += " lane=" + lane;
  out += " status=" + status;
  if (generation > 0) out += " generation=" + std::to_string(generation);
  if (stale) out += " stale=true";
  out += " rows=" + std::to_string(rows);
  out += " total=" + FormatMicros(total_micros) + "us";
  out += " admission_wait=" + FormatMicros(admission_wait_micros) + "us";
  out += "\n";
  for (const ProfileNode& root : roots) {
    NodeToText(root, 1, &out);
  }
  return out;
}

std::string RequestProfile::ToJson() const {
  std::string out = "{\"request_id\":" + std::to_string(request_id);
  out += ",\"kind\":\"";
  JsonEscape(kind, &out);
  out += "\",\"lane\":\"";
  JsonEscape(lane, &out);
  out += "\",\"status\":\"";
  JsonEscape(status, &out);
  out += "\",\"generation\":" + std::to_string(generation);
  out += ",\"stale\":";
  out += stale ? "true" : "false";
  out += ",\"rows\":" + std::to_string(rows);
  out += ",\"admission_wait_micros\":" + FormatMicros(admission_wait_micros);
  out += ",\"total_micros\":" + FormatMicros(total_micros);
  out += ",\"plan\":[";
  for (size_t i = 0; i < roots.size(); ++i) {
    if (i > 0) out += ",";
    NodeToJson(roots[i], &out);
  }
  out += "]}";
  return out;
}

}  // namespace quarry::obs
