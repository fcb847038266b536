#include "head_policy.hh"

namespace rtm
{

constexpr EnumToken<HeadPolicy> kHeadPolicyRows[] = {
    {HeadPolicy::Stay, "stay"},
    {HeadPolicy::ReturnHome, "return-home", nullptr, "home"},
    {HeadPolicy::Center, "center"},
    {HeadPolicy::Predictive, "predictive"},
};
constexpr EnumTokens<HeadPolicy> kHeadPolicyTokens("head policy",
                                                   kHeadPolicyRows);

const EnumTokens<HeadPolicy> &
enumTokens(HeadPolicy)
{
    return kHeadPolicyTokens;
}

const char *
headPolicyName(HeadPolicy policy)
{
    return kHeadPolicyTokens.token(policy);
}

bool
headPolicyFromToken(const std::string &token, HeadPolicy *out)
{
    return kHeadPolicyTokens.parse(token, out);
}

} // namespace rtm
