/**
 * @file
 * Plain-text table renderer used by the benchmark harnesses to print
 * paper-style tables (Table 1, Table 7, ...) with aligned columns.
 */

#ifndef FLASHMEM_COMMON_TABLE_HH
#define FLASHMEM_COMMON_TABLE_HH

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace flashmem {

/** Column-aligned ASCII table. */
class Table
{
  public:
    /** Construct with header labels. */
    explicit Table(std::vector<std::string> headers);

    /** Append a full row; pads/truncates to the header width. */
    void addRow(std::vector<std::string> cells);

    /** Append a separator rule between row groups. */
    void addRule();

    /** Number of data rows added so far. */
    // FMLINT(allow:test-only-api) tests observe how many rows a table holds
    std::size_t rowCount() const { return rows_.size(); }

    /** Render with column alignment to @p os. */
    void print(std::ostream &os) const;

    /** Render to a string (used in tests). */
    std::string toString() const;

  private:
    struct Row
    {
        std::vector<std::string> cells;
        bool rule = false;
    };

    std::vector<std::string> headers_;
    std::vector<Row> rows_;
};

/** Print a boxed section title for bench output. */
void printHeading(std::ostream &os, const std::string &title);

} // namespace flashmem

#endif // FLASHMEM_COMMON_TABLE_HH
