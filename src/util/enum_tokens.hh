/**
 * @file
 * One token table per enum: the spelling specs, journals and CLI
 * flags use for each value, an accepted alias, and a display name.
 *
 * Each enum that crosses a text boundary defines one static table
 * next to its definition and exposes it as `enumTokens(E)`, so
 * parsing, emission and the "unknown X 'tok' (a | b | c)" diagnostic
 * all come from the same rows:
 *
 *     constexpr EnumToken<HeadPolicy> kHeadPolicyRows[] = {
 *         {HeadPolicy::Stay, "stay"},
 *         {HeadPolicy::ReturnHome, "return-home", nullptr, "home"},
 *     };
 *     constexpr EnumTokens<HeadPolicy> kHeadPolicyTokens(
 *         "head policy", kHeadPolicyRows);
 */

#ifndef RTM_UTIL_ENUM_TOKENS_HH
#define RTM_UTIL_ENUM_TOKENS_HH

#include <cstddef>
#include <string>

namespace rtm
{

/** One row: a value, its canonical token, display name and alias. */
template <class E>
struct EnumToken
{
    E value;
    const char *token;           //!< canonical (emitted) spelling
    const char *name = nullptr;  //!< display name (null: the token)
    const char *alias = nullptr; //!< extra accepted spelling
};

/** The token table of one enum (rows live in static storage). */
template <class E>
class EnumTokens
{
  public:
    /** `what` names the enum in diagnostics ("head policy"). */
    template <size_t N>
    constexpr EnumTokens(const char *what,
                         const EnumToken<E> (&rows)[N])
        : what_(what), rows_(rows), end_(rows + N)
    {
    }

    /** Canonical token of `v` ("?" for a value with no row). */
    const char *token(E v) const
    {
        const EnumToken<E> *r = find(v);
        return r ? r->token : "?";
    }

    /** Display name of `v` (the token when the row names none). */
    const char *name(E v) const
    {
        const EnumToken<E> *r = find(v);
        return r && r->name ? r->name : token(v);
    }

    /** Token or alias -> value; false (out untouched) if unknown. */
    bool parse(const std::string &token, E *out) const
    {
        for (const EnumToken<E> *r = rows_; r != end_; ++r) {
            if (token == r->token || (r->alias && token == r->alias)) {
                *out = r->value;
                return true;
            }
        }
        return false;
    }

    /** "unknown <what> '<token>' (a | b | c)". */
    std::string unknown(const std::string &token) const
    {
        std::string msg =
            std::string("unknown ") + what_ + " '" + token + "' (";
        for (const EnumToken<E> *r = rows_; r != end_; ++r)
            msg += std::string(r == rows_ ? "" : " | ") + r->token;
        return msg + ")";
    }

  private:
    const EnumToken<E> *find(E v) const
    {
        for (const EnumToken<E> *r = rows_; r != end_; ++r)
            if (r->value == v)
                return r;
        return nullptr;
    }

    const char *what_;
    const EnumToken<E> *rows_;
    const EnumToken<E> *end_;
};

} // namespace rtm

#endif // RTM_UTIL_ENUM_TOKENS_HH
