/**
 * @file
 * Minimal command-line option parser for the benchmark drivers.
 */

#ifndef RHTM_UTIL_CLI_H
#define RHTM_UTIL_CLI_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rhtm
{

/**
 * Tiny --key=value option parser.
 *
 * Recognizes "--key=value" and bare "--flag" (stored as "1"). Every
 * getter and has() marks its key as read; after the last read a
 * driver calls exitOnErrors(), which rejects typos (keys nobody read),
 * stray tokens and values a getter could not parse. Far smaller than a
 * real flags library, but the benches need only a handful of knobs.
 */
class CliOptions
{
  public:
    /** Parse argv; never throws, malformed tokens land in errors(). */
    CliOptions(int argc, char **argv);

    /** True if --key was present. */
    bool has(const std::string &key) const;

    /** String value of --key, or @p def when absent. */
    std::string getString(const std::string &key,
                          const std::string &def) const;

    /** Integer value of --key, or @p def when absent or unparsable. */
    int64_t getInt(const std::string &key, int64_t def) const;

    /** Double value of --key, or @p def when absent or unparsable. */
    double getDouble(const std::string &key, double def) const;

    /**
     * Comma-separated integer list of --key, or @p def when absent,
     * empty or holding an unparsable item.
     */
    std::vector<int64_t> getIntList(const std::string &key,
                                    const std::vector<int64_t> &def) const;

    /**
     * Comma-separated list of --key with empty items dropped, or
     * @p def when absent.
     */
    std::vector<std::string>
    getList(const std::string &key,
            const std::vector<std::string> &def) const;

    /**
     * Tokens that did not look like --key[=value], and values a getter
     * could not parse.
     */
    const std::vector<std::string> &errors() const { return errors_; }

    /** Keys present on the command line that nothing has read yet. */
    std::vector<std::string> unread() const;

    /**
     * Call after the last option read: print every error and unread
     * key to stderr and exit with status 2 if there is any.
     */
    void exitOnErrors() const;

  private:
    /** Value of a present key (marking it read), or nullptr. */
    const std::string *find(const std::string &key) const;

    /** Record that --key's value is not a @p what. */
    void bad(const std::string &key, const char *what) const;

    std::string prog_;
    std::map<std::string, std::string> values_;
    mutable std::set<std::string> read_;
    mutable std::vector<std::string> errors_;
};

} // namespace rhtm

#endif // RHTM_UTIL_CLI_H
