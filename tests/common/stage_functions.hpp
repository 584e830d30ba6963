/**
 * @file
 * Reading the generated program back: the functions it defines, the
 * stage-function calls its drivers make and the stage each call
 * stores, and a canonical form under which two stage functions that
 * differ only in the names of their arguments and locals compare
 * equal.
 */
#ifndef POLYMAGE_TESTS_COMMON_STAGE_FUNCTIONS_HPP
#define POLYMAGE_TESTS_COMMON_STAGE_FUNCTIONS_HPP

#include <cctype>
#include <map>
#include <regex>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "driver/compiler.hpp"

namespace polymage::testing {

/** One function defined in GeneratedCode::functions. */
struct Definition
{
    std::string name;
    /** Each argument as declared, and its declared name. */
    std::vector<std::string> argDecls;
    std::vector<std::string> args;
    /** Everything after the signature line: `{`, body, `}`. */
    std::string body;
};

/** Identifier tokens of @p text as (begin, end), numerals skipped. */
inline std::vector<std::pair<std::size_t, std::size_t>>
identifierTokens(const std::string &text)
{
    auto word = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t i = 0; i < text.size();) {
        if (!word(text[i])) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < text.size() && word(text[j]))
            ++j;
        if (!std::isdigit(static_cast<unsigned char>(text[i])))
            out.emplace_back(i, j);
        i = j;
    }
    return out;
}

/** @p s split at ", " (generated argument lists nest no commas). */
inline std::vector<std::string>
splitArgs(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t at = 0;
    while (!s.empty()) {
        const std::size_t comma = s.find(", ", at);
        out.push_back(s.substr(at, comma - at));
        if (comma == std::string::npos)
            break;
        at = comma + 2;
    }
    return out;
}

/** Every function the program defines, by name; none may be defined
 * twice. */
inline std::map<std::string, Definition>
definitions(const cg::GeneratedCode &code)
{
    std::map<std::string, Definition> out;
    const std::regex def(
        R"(^__attribute__\(\(visibility\("hidden"\)[a-z, ]*\)\) [a-z ]+ (polymage_\w+)\((.*)\)$)");
    for (const std::string &piece : code.functions) {
        std::size_t bol = 0;
        while (bol < piece.size()) {
            const std::size_t eol = piece.find('\n', bol);
            std::smatch m;
            const std::string line = piece.substr(bol, eol - bol);
            if (std::regex_match(line, m, def)) {
                Definition d;
                d.name = m[1];
                d.argDecls = splitArgs(m[2]);
                for (const std::string &a : d.argDecls) {
                    const auto toks = identifierTokens(a);
                    d.args.push_back(toks.empty()
                                         ? ""
                                         : a.substr(toks.back().first,
                                                    toks.back().second -
                                                        toks.back().first));
                }
                d.body = piece.substr(eol + 1);
                EXPECT_EQ(out.count(d.name), 0u) << d.name << " defined twice";
                out[d.name] = std::move(d);
                break;
            }
            bol = eol + 1;
        }
    }
    return out;
}

/** Is @p name a stage function: `_g<k>_s<j>` or `_g<k>_s<j>_n<m>`? */
inline bool
isStageFunction(const std::string &name)
{
    static const std::regex stage(R"(_g\d+_s\d+(_n\d+)?$)");
    return std::regex_search(name, stage);
}

/**
 * @p def without its name, its arguments renamed by position and every
 * `const int` / `const long long` local renamed in order of
 * declaration: two stage functions compute the same thing from their
 * arguments when these agree.
 */
inline std::string
canonical(const Definition &def)
{
    std::string text = "(";
    for (std::size_t i = 0; i < def.argDecls.size(); ++i)
        text += (i ? ", " : "") + def.argDecls[i];
    text += ")\n" + def.body;
    std::map<std::string, std::string> to;
    for (std::size_t i = 0; i < def.args.size(); ++i)
        to[def.args[i]] = "@a" + std::to_string(i);
    const std::regex local(R"(const (?:int|long long) (\w+) = )");
    int n = 0;
    for (auto it = std::sregex_iterator(def.body.begin(), def.body.end(),
                                        local);
         it != std::sregex_iterator(); ++it) {
        if (!to.count((*it)[1]))
            to[(*it)[1]] = "@v" + std::to_string(n++);
    }
    std::string out;
    std::size_t done = 0;
    for (const auto &[i, j] : identifierTokens(text)) {
        auto it = to.find(text.substr(i, j - i));
        if (it == to.end())
            continue;
        out.append(text, done, i - done);
        out += it->second;
        done = j;
    }
    out.append(text, done, std::string::npos);
    return out;
}

/** One stage-function call of a driver. */
struct StageCall
{
    std::string callee;
    std::vector<std::string> args;
    std::string text;
};

/** The stage-function calls in @p body, in order. */
inline std::vector<StageCall>
stageCalls(const std::string &body)
{
    static const std::regex call(
        R"((polymage_\w+_g\d+_s\d+(?:_n\d+)?)\(([^;]*)\);)");
    std::vector<StageCall> out;
    for (auto it = std::sregex_iterator(body.begin(), body.end(), call);
         it != std::sregex_iterator(); ++it)
        out.push_back({(*it)[1], splitArgs((*it)[2]), (*it)[0]});
    return out;
}

/**
 * Does @p body store to the array @p buf?  Scalar stores read
 * `buf[...] = `, vector stores `*(...)&(buf[...]) = `.
 */
inline bool
storesTo(const std::string &body, const std::string &buf)
{
    std::size_t bol = 0;
    while (bol < body.size()) {
        std::size_t eol = body.find('\n', bol);
        if (eol == std::string::npos)
            eol = body.size();
        std::string line = body.substr(bol, eol - bol);
        bol = eol + 1;
        line.erase(0, line.find_first_not_of(' '));
        const std::size_t assign = line.find("] = ");
        if (assign == std::string::npos)
            continue;
        if (line.rfind(buf + "[", 0) == 0 ||
            (line.rfind("*(", 0) == 0 &&
             line.find(")&(" + buf + "[") < assign))
            return true;
    }
    return false;
}

/**
 * The stage a driver's call argument @p value stores to, in group
 * @p gi: a scratchpad `scr_<stage>`, a live-out `(T *)outputs[j]`, or
 * the group's one full buffer in `(T *)pm_slots[k]`; -1 when none or
 * when two of the group's stages hold slot k.
 */
inline int
stageOfArgument(const CompiledPipeline &c, int gi, const std::string &value)
{
    const auto &g = c.graph;
    std::smatch m;
    if (value.rfind("scr_", 0) == 0) {
        for (std::size_t s = 0; s < g.stages().size(); ++s)
            if (g.stage(int(s)).name() == value.substr(4))
                return int(s);
    } else if (std::regex_match(value, m,
                                std::regex(R"(\([\w ]+\*\)outputs\[(\d+)\])"))) {
        return g.outputs().at(std::size_t(std::stoi(m[1])));
    } else if (std::regex_match(value, m,
                                std::regex(R"(\([\w ]+\*\)pm_slots\[(\d+)\])"))) {
        int found = -1;
        for (int s : c.grouping.groups[std::size_t(gi)].stages) {
            auto it = c.storage.slot.find(s);
            if (!c.storage.isScratch(s) && it != c.storage.slot.end() &&
                it->second == std::stoi(m[1])) {
                if (found >= 0)
                    return -1;
                found = s;
            }
        }
        return found;
    }
    return -1;
}

} // namespace polymage::testing

#endif // POLYMAGE_TESTS_COMMON_STAGE_FUNCTIONS_HPP
