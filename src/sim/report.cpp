#include "sim/report.hpp"

#include <ostream>

#include "util/cli.hpp"
#include "util/text.hpp"

namespace tagecon {

bool
parseReportFormat(const std::string& name, ReportFormat& out,
                  std::string& error)
{
    const std::string lowered = toLower(name);
    if (lowered == "text")
        out = ReportFormat::Text;
    else if (lowered == "csv")
        out = ReportFormat::Csv;
    else if (lowered == "json")
        out = ReportFormat::Json;
    else {
        error = "unknown report format '" + name +
                "' (known: text, csv, json)";
        return false;
    }
    return true;
}

bool
parseReportFlags(const CliArgs& args, ReportFormat& out,
                 std::string& error)
{
    out = args.getBool("csv", false) ? ReportFormat::Csv
                                     : ReportFormat::Text;
    return !args.has("report") ||
           parseReportFormat(args.getString("report", "text"), out,
                             error);
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const unsigned char ch : s) {
        switch (ch) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (ch < 0x20) {
                static const char hex[] = "0123456789abcdef";
                out += "\\u00";
                out += hex[(ch >> 4) & 0xf];
                out += hex[ch & 0xf];
            } else {
                out += static_cast<char>(ch);
            }
        }
    }
    return out;
}

void
Report::emit(ReportFormat format, std::ostream& os) const
{
    switch (format) {
      case ReportFormat::Text:
        emitFlat(os, false);
        break;
      case ReportFormat::Csv:
        emitFlat(os, true);
        break;
      case ReportFormat::Json:
        emitJson(os);
        break;
    }
}

std::vector<const ReportTable*>
Report::tables() const
{
    std::vector<const ReportTable*> tables;
    for (const auto& item : items_) {
        if (item.kind == Item::Kind::Table)
            tables.push_back(&item.table);
    }
    return tables;
}

void
Report::emitFlat(std::ostream& os, bool csv) const
{
    if (showBanner_ && !title_.empty()) {
        os << "=== " << title_ << " ===\n";
        if (!paperRef_.empty())
            os << "reproduces: " << paperRef_ << "\n";
        if (!meta_.empty()) {
            bool first = true;
            for (const auto& [key, value] : meta_) {
                os << (first ? "" : "  ") << key << ": " << value;
                first = false;
            }
            os << "\n";
        }
        os << "\n";
    }

    for (const auto& item : items_) {
        if (item.kind == Item::Kind::Text) {
            os << item.text << "\n";
            continue;
        }
        if (!item.table.heading.empty())
            os << "--- " << item.table.heading << " ---\n";
        if (csv)
            item.table.table.renderCsv(os);
        else
            item.table.table.render(os);
    }
}

void
Report::emitJson(std::ostream& os) const
{
    os << "{\n";
    os << "  \"schema\": \"tagecon-report-v1\",\n";
    os << "  \"id\": \"" << jsonEscape(id_) << "\",\n";
    os << "  \"title\": \"" << jsonEscape(title_) << "\",\n";
    os << "  \"paperRef\": \"" << jsonEscape(paperRef_) << "\",\n";

    os << "  \"meta\": {";
    for (size_t i = 0; i < meta_.size(); ++i) {
        os << (i == 0 ? "" : ", ") << "\"" << jsonEscape(meta_[i].first)
           << "\": \"" << jsonEscape(meta_[i].second) << "\"";
    }
    os << "},\n";

    os << "  \"sections\": [";
    bool first_section = true;
    for (const auto& item : items_) {
        if (item.kind == Item::Kind::Text && item.text.empty())
            continue; // layout blanks carry no content
        os << (first_section ? "" : ",") << "\n    ";
        first_section = false;
        if (item.kind == Item::Kind::Text) {
            os << "{\"kind\": \"text\", \"text\": \""
               << jsonEscape(item.text) << "\"}";
            continue;
        }
        const ReportTable& t = item.table;
        os << "{\n      \"kind\": \"table\",\n";
        os << "      \"id\": \"" << jsonEscape(t.id) << "\",\n";
        os << "      \"heading\": \"" << jsonEscape(t.heading)
           << "\",\n";
        os << "      \"columns\": [";
        const auto& headers = t.table.headers();
        for (size_t c = 0; c < headers.size(); ++c) {
            os << (c == 0 ? "" : ", ") << "\"" << jsonEscape(headers[c])
               << "\"";
        }
        os << "],\n";
        os << "      \"rows\": [";
        const auto rows = t.table.dataRows();
        for (size_t r = 0; r < rows.size(); ++r) {
            os << (r == 0 ? "" : ",") << "\n        [";
            for (size_t c = 0; c < rows[r].size(); ++c) {
                os << (c == 0 ? "" : ", ") << "\""
                   << jsonEscape(rows[r][c]) << "\"";
            }
            os << "]";
        }
        os << (rows.empty() ? "]" : "\n      ]") << "\n    }";
    }
    os << (first_section ? "]" : "\n  ]") << "\n";
    os << "}\n";
}

} // namespace tagecon
