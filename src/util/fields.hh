/**
 * @file
 * Field tables: the one declaration of which fields a struct
 * serialises, under which keys and in which order.
 *
 * A table is a static array of Field rows. Each row binds a JSON key
 * to a member (or a member path such as `&Spec::config,
 * &Config::seed`), a nested table, or a piece of explicit code.
 * Every serialisation path is a walk over that one array:
 *
 *  - fieldsToJson / emitFields: the emitted JsonValue;
 *  - readObject / readFields: SpecReader parsing with dotted-path
 *    diagnostics and unknown-key rejection;
 *  - loadFields: journal reload (every unconditional key required);
 *  - sameFields: equality for structs that cannot `= default` it.
 *
 *     constexpr Field<ResilienceSpec> kResilienceFields[] = {
 *         field<&ResilienceSpec::retry_budget>("retry_budget"),
 *         field<&ResilienceSpec::backoff_ms>("backoff_ms"),
 *     };
 *
 * Rows are constexpr and hold plain function pointers to template
 * instantiations, so a table is static data: nothing is built or
 * allocated per walk beyond the JSON values and diagnostic paths.
 */

#ifndef RTM_UTIL_FIELDS_HH
#define RTM_UTIL_FIELDS_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/serde.hh"
#include "util/stats_serde.hh"

namespace rtm
{

/** Which rendering of a result a row belongs to (bit mask). */
enum FieldView : unsigned
{
    kFullView = 1,  //!< specs, journal checkpoints, ledgers
    kBriefView = 2, //!< lossy per-cell report summaries
    kBothViews = kFullView | kBriefView,
};

/** One table row; build rows with the factories below. */
template <class S>
struct Field
{
    /**
     * JSON key; null for a check row or an inline sub-table. A row
     * with only a key is known to the unknown-key check, never walked.
     */
    const char *key = nullptr;
    void (*emit)(const Field &, const S &, JsonValue *obj,
                 unsigned view) = nullptr;
    void (*read)(const Field &, SpecReader &, S *) = nullptr;
    bool (*same)(const S &, const S &) = nullptr;
    /** Key membership of an inline sub-table (null key only). */
    bool (*knows)(const std::string &) = nullptr;
    /** Emit only when true; such a row is optional on reload. */
    bool (*when)(const S &) = nullptr;
    /** Called after a read that found the key (presence flags). */
    void (*found)(S *) = nullptr;
    unsigned views = kBothViews;

    /** This row, emitted only when `pred` holds. */
    constexpr Field onlyIf(bool (*pred)(const S &)) const
    {
        Field f = *this;
        f.when = pred;
        return f;
    }

    /** This row, restricted to the views in `mask`. */
    constexpr Field in(unsigned mask) const
    {
        Field f = *this;
        f.views = mask;
        return f;
    }
};

namespace fields_detail
{

template <class P>
struct Member;
template <class C, class T>
struct Member<T C::*>
{
    using Class = C;
};

/** Struct a member path starts from (`Default` for an empty path). */
template <class Default, auto... M>
struct PathOwner
{
    using type = Default;
};
template <class Default, auto First, auto... Rest>
struct PathOwner<Default, First, Rest...>
{
    using type = typename Member<decltype(First)>::Class;
};

template <class T>
struct TableOwner;
template <class S, size_t N>
struct TableOwner<const Field<S>[N]>
{
    using type = S;
};
template <const auto &Table>
using TableOf =
    typename TableOwner<std::remove_reference_t<decltype(Table)>>::type;

template <class F>
struct CheckOwner;
template <class S>
struct CheckOwner<void (*)(SpecReader &, S *)>
{
    using type = S;
};

/** s.*M1.*M2... (s itself for an empty path). */
template <auto... M, class S>
constexpr auto &
at(S &s)
{
    return (s .* ... .* M);
}

} // namespace fields_detail

/** Leaf value -> JSON: enums by token, stats by their serde. */
template <class T>
JsonValue
valueToJson(const T &v)
{
    if constexpr (std::is_enum_v<T>)
        return enumTokens(v).token(v);
    else if constexpr (std::is_same_v<T, IntTally>)
        return intTallyToJson(v);
    else if constexpr (std::is_same_v<T, RunningStats>)
        return runningStatsToJson(v);
    else
        return JsonValue(v);
}

/** Typed read of one leaf; a missing key leaves `out` untouched. */
template <class T>
void
readValue(SpecReader &r, const char *key, T *out)
{
    if constexpr (std::is_enum_v<T>) {
        if (const JsonValue *v = r.child(key, JsonType::String))
            if (!enumTokens(*out).parse(v->asString(), out))
                r.fail(key, enumTokens(*out).unknown(v->asString()));
    } else if constexpr (std::is_same_v<T, IntTally>) {
        if (r.has(key) && !intTallyFromJson(*r.value().find(key), out))
            r.fail(key, "malformed tally");
    } else if constexpr (std::is_same_v<T, RunningStats>) {
        if (r.has(key) &&
            !runningStatsFromJson(*r.value().find(key), out))
            r.fail(key, "malformed running stats");
    } else if constexpr (std::is_same_v<T, bool>) {
        r.readBool(key, out);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
        r.readU64(key, out);
    } else if constexpr (std::is_same_v<T, int>) {
        r.readInt(key, out);
    } else if constexpr (std::is_same_v<T, double>) {
        r.readDouble(key, out);
    } else {
        static_assert(std::is_same_v<T, std::string>,
                      "no JSON binding for this field type");
        r.readString(key, out);
    }
}

// --- walks -----------------------------------------------------------

/** Append the rows of `view` to the object `obj`. */
template <class S, size_t N>
void
emitFields(const Field<S> (&table)[N], const S &s, JsonValue *obj,
           unsigned view = kFullView)
{
    for (const Field<S> &f : table)
        if (f.emit && (f.views & view) && (!f.when || f.when(s)))
            f.emit(f, s, obj, view);
}

/** `s` as a fresh JSON object. */
template <class S, size_t N>
JsonValue
fieldsToJson(const Field<S> (&table)[N], const S &s,
             unsigned view = kFullView)
{
    JsonValue v = JsonValue::object();
    emitFields(table, s, &v, view);
    return v;
}

/** Read every row of `r`'s object into `s` (unknown keys ignored). */
template <class S, size_t N>
void
readFields(const Field<S> (&table)[N], SpecReader &r, S *s)
{
    for (const Field<S> &f : table) {
        if (!f.read || !(f.views & kFullView))
            continue;
        f.read(f, r, s);
        if (f.found && r.has(f.key))
            f.found(s);
    }
}

/** Whether `key` names a row (inline sub-tables included). */
template <class S, size_t N>
bool
knowsKey(const Field<S> (&table)[N], const std::string &key)
{
    for (const Field<S> &f : table)
        if (f.key ? key == f.key : f.knows && f.knows(key))
            return true;
    return false;
}

/** readFields, then one diagnostic per key no row names. */
template <class S, size_t N>
void
readObject(const Field<S> (&table)[N], SpecReader &r, S *s)
{
    readFields(table, r, s);
    r.rejectUnknownKeys(
        [&table](const std::string &k) { return knowsKey(table, k); });
}

/** Row-wise equality (rows without a comparable value skipped). */
template <class S, size_t N>
bool
sameFields(const Field<S> (&table)[N], const S &a, const S &b)
{
    for (const Field<S> &f : table)
        if (f.same && !f.same(a, b))
            return false;
    return true;
}

/**
 * Journal reload: `doc` must carry every unconditional key of the
 * full view and read without a diagnostic; `out` is replaced only on
 * success.
 */
template <class S, size_t N>
bool
loadFields(const Field<S> (&table)[N], const JsonValue &doc, S *out)
{
    std::string diag;
    SpecReader r(doc, "", &diag);
    for (const Field<S> &f : table)
        if (f.key && f.read && (f.views & kFullView) && !f.when &&
            !r.has(f.key))
            return false;
    S s{};
    readFields(table, r, &s);
    if (!diag.empty())
        return false;
    *out = std::move(s);
    return true;
}

/** Array of objects, one per item. */
template <class T, size_t N>
JsonValue
listToJson(const Field<T> (&table)[N], const std::vector<T> &items,
           unsigned view = kFullView)
{
    JsonValue v = JsonValue::array();
    for (const T &item : items)
        v.push(fieldsToJson(table, item, view));
    return v;
}

/**
 * Read the array `key` (when present) into `out`: each object item
 * starts from `proto` and reads through `table` under the path
 * "key[i]"; each string item goes to expand(reader, token, out) —
 * pass nullptr to reject strings as non-objects.
 */
template <class T, size_t N, class Expand>
void
readList(const Field<T> (&table)[N], SpecReader &r, const char *key,
         std::vector<T> *out, const T &proto, Expand expand)
{
    const JsonValue *arr = r.child(key, JsonType::Array);
    if (!arr)
        return;
    out->clear();
    for (size_t i = 0; i < arr->size(); ++i) {
        const JsonValue &item = arr->at(i);
        if constexpr (!std::is_null_pointer_v<Expand>) {
            if (item.isString()) {
                expand(r, item.asString(), out);
                continue;
            }
        }
        SpecReader ir(r, std::string(key) + "[" + std::to_string(i) + "]",
                      item);
        T value = proto;
        readObject(table, ir, &value);
        out->push_back(std::move(value));
    }
}

// --- row factories ---------------------------------------------------

/**
 * A value at member path M... with its own codec: ToJson(value)
 * emits it and Read(reader, key, &value) parses it.
 */
template <auto ToJson, auto Read, auto... M>
constexpr auto
custom(const char *key)
{
    using S = typename fields_detail::PathOwner<void, M...>::type;
    using T = std::remove_cvref_t<decltype(fields_detail::at<M...>(
        std::declval<S &>()))>;
    Field<S> f;
    f.key = key;
    f.emit = [](const Field<S> &row, const S &s, JsonValue *obj,
                unsigned) {
        obj->set(row.key, ToJson(fields_detail::at<M...>(s)));
    };
    f.read = [](const Field<S> &row, SpecReader &r, S *s) {
        Read(r, row.key, &fields_detail::at<M...>(*s));
    };
    if constexpr (std::equality_comparable<T>)
        f.same = [](const S &a, const S &b) {
            return fields_detail::at<M...>(a) ==
                   fields_detail::at<M...>(b);
        };
    return f;
}

/** A leaf value (valueToJson / readValue) at member path M... */
template <auto... M>
constexpr auto
field(const char *key)
{
    using S = typename fields_detail::PathOwner<void, M...>::type;
    using T = std::remove_cvref_t<decltype(fields_detail::at<M...>(
        std::declval<S &>()))>;
    return custom<valueToJson<T>, readValue<T>, M...>(key);
}

/** listToJson through `Table`, as a custom() codec. */
template <const auto &Table>
JsonValue
listOf(const std::vector<fields_detail::TableOf<Table>> &items)
{
    return listToJson(Table, items);
}

/** readList through `Table` (no shortcuts), as a custom() codec. */
template <const auto &Table>
void
readListOf(SpecReader &r, const char *key,
           std::vector<fields_detail::TableOf<Table>> *out)
{
    readList(Table, r, key, out, fields_detail::TableOf<Table>{},
             nullptr);
}

/** An array of objects through `Table`, at member path M... */
template <const auto &Table, auto... M>
constexpr auto
list(const char *key)
{
    return custom<listOf<Table>, readListOf<Table>, M...>(key);
}

/**
 * A sub-object through `Table`, at member path M... (the struct
 * itself for an empty path, grouping some of its members under
 * `key`). A null key inlines the sub-table's keys into this object.
 */
template <const auto &Table, auto... M>
constexpr auto
nested(const char *key)
{
    using Sub = fields_detail::TableOf<Table>;
    using S = typename fields_detail::PathOwner<Sub, M...>::type;
    Field<S> f;
    f.key = key;
    f.emit = [](const Field<S> &row, const S &s, JsonValue *obj,
                unsigned view) {
        const Sub &sub = fields_detail::at<M...>(s);
        if (row.key)
            obj->set(row.key, fieldsToJson(Table, sub, view));
        else
            emitFields(Table, sub, obj, view);
    };
    f.read = [](const Field<S> &row, SpecReader &r, S *s) {
        Sub *sub = &fields_detail::at<M...>(*s);
        if (!row.key) {
            readFields(Table, r, sub);
        } else if (const JsonValue *v =
                       r.child(row.key, JsonType::Object)) {
            SpecReader sr(r, row.key, *v);
            readObject(Table, sr, sub);
        }
    };
    f.same = [](const S &a, const S &b) {
        return sameFields(Table, fields_detail::at<M...>(a),
                          fields_detail::at<M...>(b));
    };
    if (!key)
        f.knows = [](const std::string &k) { return knowsKey(Table, k); };
    return f;
}

/** An emit-only value: member function F of the value at path M... */
template <auto F, auto... M>
constexpr auto
derived(const char *key)
{
    using Of = typename fields_detail::Member<decltype(F)>::Class;
    using S = typename fields_detail::PathOwner<Of, M...>::type;
    Field<S> f;
    f.key = key;
    f.emit = [](const Field<S> &row, const S &s, JsonValue *obj,
                unsigned) {
        obj->set(row.key, (fields_detail::at<M...>(s).*F)());
    };
    return f;
}

/** Post-read defaults and range checks, run in table order. */
template <auto Check>
constexpr auto
check()
{
    using S = typename fields_detail::CheckOwner<decltype(Check)>::type;
    Field<S> f;
    f.read = [](const Field<S> &, SpecReader &r, S *s) { Check(r, s); };
    return f;
}

/** `row`, present exactly when the bool member Flag is set. */
template <auto Flag, class S>
constexpr Field<S>
optional(Field<S> row)
{
    row.when = [](const S &s) { return s.*Flag; };
    row.found = [](S *s) { s->*Flag = true; };
    return row;
}

} // namespace rtm

#endif // RTM_UTIL_FIELDS_HH
