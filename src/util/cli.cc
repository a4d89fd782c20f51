#include "src/util/cli.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace rhtm
{

CliOptions::CliOptions(int argc, char **argv)
    : prog_(argc > 0 ? argv[0] : "")
{
    for (int i = 1; i < argc; ++i) {
        std::string tok(argv[i]);
        if (tok.rfind("--", 0) != 0) {
            errors_.push_back(tok);
            continue;
        }
        std::string body = tok.substr(2);
        auto eq = body.find('=');
        if (eq == std::string::npos) {
            values_[body].assign(1, '1');
        } else {
            values_[body.substr(0, eq)] = body.substr(eq + 1);
        }
    }
}

const std::string *
CliOptions::find(const std::string &key) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return nullptr;
    read_.insert(key);
    return &it->second;
}

void
CliOptions::bad(const std::string &key, const char *what) const
{
    std::string msg = "--" + key + "=" + values_.at(key) + " is not " +
                      what;
    if (std::find(errors_.begin(), errors_.end(), msg) == errors_.end())
        errors_.push_back(msg);
}

bool
CliOptions::has(const std::string &key) const
{
    return find(key) != nullptr;
}

std::string
CliOptions::getString(const std::string &key, const std::string &def) const
{
    const std::string *v = find(key);
    return v == nullptr ? def : *v;
}

int64_t
CliOptions::getInt(const std::string &key, int64_t def) const
{
    const std::string *v = find(key);
    if (v == nullptr)
        return def;
    char *end = nullptr;
    int64_t n = std::strtoll(v->c_str(), &end, 10);
    if (v->empty() || *end != '\0') {
        bad(key, "an integer");
        return def;
    }
    return n;
}

double
CliOptions::getDouble(const std::string &key, double def) const
{
    const std::string *v = find(key);
    if (v == nullptr)
        return def;
    char *end = nullptr;
    double d = std::strtod(v->c_str(), &end);
    if (v->empty() || *end != '\0') {
        bad(key, "a number");
        return def;
    }
    return d;
}

std::vector<int64_t>
CliOptions::getIntList(const std::string &key,
                       const std::vector<int64_t> &def) const
{
    if (find(key) == nullptr)
        return def;
    std::vector<int64_t> out;
    for (const std::string &item : getList(key, {})) {
        char *end = nullptr;
        int64_t n = std::strtoll(item.c_str(), &end, 10);
        if (*end != '\0') {
            bad(key, "an integer list");
            return def;
        }
        out.push_back(n);
    }
    if (out.empty()) {
        bad(key, "an integer list");
        return def;
    }
    return out;
}

std::vector<std::string>
CliOptions::getList(const std::string &key,
                    const std::vector<std::string> &def) const
{
    const std::string *v = find(key);
    if (v == nullptr)
        return def;
    std::vector<std::string> out;
    std::stringstream ss(*v);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::vector<std::string>
CliOptions::unread() const
{
    std::vector<std::string> out;
    for (const auto &kv : values_)
        if (read_.count(kv.first) == 0)
            out.push_back(kv.first);
    return out;
}

void
CliOptions::exitOnErrors() const
{
    std::vector<std::string> unknown = unread();
    if (errors_.empty() && unknown.empty())
        return;
    for (const std::string &e : errors_)
        std::fprintf(stderr, "%s: bad argument: %s\n", prog_.c_str(),
                     e.c_str());
    for (const std::string &k : unknown)
        std::fprintf(stderr, "%s: unknown option --%s\n", prog_.c_str(),
                     k.c_str());
    std::exit(2);
}

} // namespace rhtm
