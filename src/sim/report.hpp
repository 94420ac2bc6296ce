/**
 * @file
 * Structured run reports with pluggable emitters. A Report is an
 * ordered document — a banner (title, paper reference, run metadata)
 * followed by text blocks and identified tables — that renders to:
 *
 *  - text  aligned tables with "--- heading ---" section markers (the
 *          historical bench output, byte for byte)
 *  - csv   the same walk with tables in RFC-4180 CSV
 *  - json  one machine-readable document ("tagecon-report-v1"): every
 *          table keeps its id, columns and row cells, so benches and
 *          tagecon_sweep --report=json share one schema
 *
 * Cells are pre-formatted strings (through the shared TextTable
 * formatters), so a table's numbers are identical across all three
 * formats — the property the CI report smoke step checks.
 */

#ifndef TAGECON_SIM_REPORT_HPP
#define TAGECON_SIM_REPORT_HPP

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/table_printer.hpp"

namespace tagecon {

/** Output format of a Report. */
enum class ReportFormat { Text, Csv, Json };

/**
 * Parse a --report flag value ("text", "csv", "json",
 * case-insensitive). Returns false with the reason in @p error.
 */
bool parseReportFormat(const std::string& name, ReportFormat& out,
                       std::string& error);

class CliArgs;

/**
 * The output format @p args ask for: text, unless --csv (an alias for
 * --report=csv) or --report=FMT says otherwise; --report wins over
 * --csv. Returns false with the reason in @p error.
 */
bool parseReportFlags(const CliArgs& args, ReportFormat& out,
                      std::string& error);

/** One identified table section of a report. */
struct ReportTable {
    /** Machine id, unique within the report (JSON key "id"). */
    std::string id;

    /**
     * Optional section heading; rendered as "--- heading ---" ahead
     * of the table in text/csv, kept verbatim in JSON.
     */
    std::string heading;

    /** The table itself (headers + pre-formatted cells). */
    TextTable table;
};

/**
 * An ordered report document. Build it section by section; emit() it
 * once in the requested format.
 */
class Report
{
  public:
    Report() = default;

    /** @param id Machine id of the whole report (e.g. "figure2"). */
    Report(std::string id, std::string title, std::string paper_ref)
        : id_(std::move(id)), title_(std::move(title)),
          paperRef_(std::move(paper_ref))
    {
    }

    /** Append one banner metadata pair (kept in insertion order). */
    void
    addMeta(std::string key, std::string value)
    {
        meta_.emplace_back(std::move(key), std::move(value));
    }

    /** Append a verbatim text line (no trailing newline). */
    void
    addText(std::string line)
    {
        items_.push_back(Item{Item::Kind::Text, std::move(line), {}});
    }

    /** Append a blank line. */
    void addBlank() { addText(""); }

    /** Append a table section. */
    void
    addTable(ReportTable table)
    {
        items_.push_back(Item{Item::Kind::Table, {}, std::move(table)});
    }

    /**
     * Suppress the banner in text/csv output (tagecon_sweep's CSV
     * mode historically prints the bare table). JSON always carries
     * the banner fields.
     */
    void setShowBanner(bool show) { showBanner_ = show; }

    /** Emit in @p format into @p os. */
    void emit(ReportFormat format, std::ostream& os) const;

    // ----------------------------------------------- read-back access
    const std::string& id() const { return id_; }
    const std::string& title() const { return title_; }
    const std::string& paperRef() const { return paperRef_; }

    const std::vector<std::pair<std::string, std::string>>&
    meta() const
    {
        return meta_;
    }

    /** The table sections, in document order (text blocks skipped). */
    std::vector<const ReportTable*> tables() const;

  private:
    struct Item {
        enum class Kind { Text, Table } kind = Kind::Text;
        std::string text;
        ReportTable table;
    };

    void emitFlat(std::ostream& os, bool csv) const;
    void emitJson(std::ostream& os) const;

    std::string id_;
    std::string title_;
    std::string paperRef_;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::vector<Item> items_;
    bool showBanner_ = true;
};

/** JSON-escape @p s (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string& s);

} // namespace tagecon

#endif // TAGECON_SIM_REPORT_HPP
