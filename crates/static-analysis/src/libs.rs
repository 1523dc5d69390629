//! Third-party library detection by class-name prefix.
//!
//! "To identify the third-party libs used in app, we maintain a list of
//! class name prefixes of third-party libs. Then, the static analysis
//! module goes through all class names to find the third-party libs
//! integrated in the app." The list covers the three lib families the
//! paper evaluates: 52 ad libs, 9 social libs, and 20 development tools.

use ppchecker_apk::Dex;

/// Family of a third-party library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LibKind {
    /// Advertisement library.
    Ad,
    /// Social-network library.
    Social,
    /// Development tool (analytics, crash reporting, engines, ...).
    DevTool,
}

/// A known third-party library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnownLib {
    /// Stable identifier (used to look up the lib's privacy policy).
    pub id: &'static str,
    /// Class-name prefix that marks the lib inside an APK.
    pub prefix: &'static str,
    /// Family.
    pub kind: LibKind,
}

const fn lib(id: &'static str, prefix: &'static str, kind: LibKind) -> KnownLib {
    KnownLib { id, prefix, kind }
}

/// The known-library table: 52 ad + 9 social + 20 dev tools = 81 libraries,
/// matching the corpus in §V-A.
pub const KNOWN_LIBS: &[KnownLib] = &[
    // ---- 52 ad libraries ----
    lib("admob", "com.google.android.gms.ads", LibKind::Ad),
    lib("adwhirl", "com.adwhirl", LibKind::Ad),
    lib("airpush", "com.airpush.android", LibKind::Ad),
    lib("adcolony", "com.adcolony.sdk", LibKind::Ad),
    lib("applovin", "com.applovin", LibKind::Ad),
    lib("appbrain", "com.appbrain", LibKind::Ad),
    lib("appnext", "com.appnext", LibKind::Ad),
    lib("amazon-ads", "com.amazon.device.ads", LibKind::Ad),
    lib("baidu-ads", "com.baidu.mobads", LibKind::Ad),
    lib("chartboost", "com.chartboost.sdk", LibKind::Ad),
    lib("domob", "cn.domob.android", LibKind::Ad),
    lib("flurry-ads", "com.flurry.android.ads", LibKind::Ad),
    lib("facebook-ads", "com.facebook.ads", LibKind::Ad),
    lib("fyber", "com.fyber", LibKind::Ad),
    lib("heyzap", "com.heyzap.sdk", LibKind::Ad),
    lib("inmobi", "com.inmobi", LibKind::Ad),
    lib("inneractive", "com.inneractive.api.ads", LibKind::Ad),
    lib("ironsource", "com.ironsource.sdk", LibKind::Ad),
    lib("jumptap", "com.jumptap.adtag", LibKind::Ad),
    lib("kiip", "me.kiip.sdk", LibKind::Ad),
    lib("leadbolt", "com.pad.android", LibKind::Ad),
    lib("madvertise", "de.madvertise.android", LibKind::Ad),
    lib("medialets", "com.medialets", LibKind::Ad),
    lib("millennial", "com.millennialmedia", LibKind::Ad),
    lib("mdotm", "com.mdotm.android", LibKind::Ad),
    lib("mobclix", "com.mobclix.android", LibKind::Ad),
    lib("mobfox", "com.mobfox.sdk", LibKind::Ad),
    lib("mopub", "com.mopub.mobileads", LibKind::Ad),
    lib("nexage", "com.nexage.android", LibKind::Ad),
    lib("pubmatic", "com.pubmatic.sdk", LibKind::Ad),
    lib("revmob", "com.revmob", LibKind::Ad),
    lib("smaato", "com.smaato.soma", LibKind::Ad),
    lib("smartadserver", "com.smartadserver.android", LibKind::Ad),
    lib("startapp", "com.startapp.android", LibKind::Ad),
    lib("swelen", "com.swelen.ads", LibKind::Ad),
    lib("tapjoy", "com.tapjoy", LibKind::Ad),
    lib("tremor", "com.tremorvideo.sdk", LibKind::Ad),
    lib("unityads", "com.unity3d.ads", LibKind::Ad),
    lib("vungle", "com.vungle.publisher", LibKind::Ad),
    lib("waps", "com.waps", LibKind::Ad),
    lib("wooboo", "com.wooboo.adlib_android", LibKind::Ad),
    lib("youmi", "net.youmi.android", LibKind::Ad),
    lib("zestadz", "com.zestadz.android", LibKind::Ad),
    lib("adfonic", "com.adfonic.android", LibKind::Ad),
    lib("adknowledge", "com.adknowledge.superrewards", LibKind::Ad),
    lib("admarvel", "com.admarvel.android", LibKind::Ad),
    lib("admixer", "com.admixer", LibKind::Ad),
    lib("adperium", "com.adperium.sdk", LibKind::Ad),
    lib("appflood", "com.appflood", LibKind::Ad),
    lib("casee", "com.casee.adsdk", LibKind::Ad),
    lib("greystripe", "com.greystripe.sdk", LibKind::Ad),
    lib("pontiflex", "com.pontiflex.mobile", LibKind::Ad),
    // ---- 9 social libraries ----
    lib("facebook", "com.facebook.android", LibKind::Social),
    lib("twitter", "com.twitter.sdk", LibKind::Social),
    lib("weibo", "com.weibo.sdk.android", LibKind::Social),
    lib("wechat", "com.tencent.mm.sdk", LibKind::Social),
    lib("linkedin", "com.linkedin.platform", LibKind::Social),
    lib("vkontakte", "com.vk.sdk", LibKind::Social),
    lib("googleplus", "com.google.android.gms.plus", LibKind::Social),
    lib("pinterest", "com.pinterest.android.pdk", LibKind::Social),
    lib("instagram", "com.instagram.android", LibKind::Social),
    // ---- 20 development tools ----
    lib("unity3d", "com.unity3d.player", LibKind::DevTool),
    lib("flurry", "com.flurry.android", LibKind::DevTool),
    lib("google-analytics", "com.google.android.gms.analytics", LibKind::DevTool),
    lib("crashlytics", "com.crashlytics.android", LibKind::DevTool),
    lib("mixpanel", "com.mixpanel.android", LibKind::DevTool),
    lib("localytics", "com.localytics.android", LibKind::DevTool),
    lib("umeng", "com.umeng.analytics", LibKind::DevTool),
    lib("newrelic", "com.newrelic.agent.android", LibKind::DevTool),
    lib("appsflyer", "com.appsflyer", LibKind::DevTool),
    lib("adjust", "com.adjust.sdk", LibKind::DevTool),
    lib("amplitude", "com.amplitude.api", LibKind::DevTool),
    lib("bugsense", "com.bugsense.trace", LibKind::DevTool),
    lib("acra", "org.acra", LibKind::DevTool),
    lib("parse", "com.parse", LibKind::DevTool),
    lib("urbanairship", "com.urbanairship", LibKind::DevTool),
    lib("pushwoosh", "com.pushwoosh", LibKind::DevTool),
    lib("cocos2dx", "org.cocos2dx.lib", LibKind::DevTool),
    lib("corona", "com.ansca.corona", LibKind::DevTool),
    lib("phonegap", "org.apache.cordova", LibKind::DevTool),
    lib("testfairy", "com.testfairy", LibKind::DevTool),
];

/// Detects the third-party libraries embedded in a dex by scanning class
/// name prefixes. Returns library ids, deduplicated, in table order.
pub fn detect_libs(dex: &Dex) -> Vec<&'static KnownLib> {
    // Scanned per app analysis: keep it allocation-free apart from the
    // result vector, and let `starts_with` reject on the first byte.
    KNOWN_LIBS.iter().filter(|l| dex.classes.iter().any(|c| c.name.starts_with(l.prefix))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppchecker_apk::Dex;

    #[test]
    fn family_counts_match_the_paper() {
        let ads = KNOWN_LIBS.iter().filter(|l| l.kind == LibKind::Ad).count();
        let social = KNOWN_LIBS.iter().filter(|l| l.kind == LibKind::Social).count();
        let dev = KNOWN_LIBS.iter().filter(|l| l.kind == LibKind::DevTool).count();
        assert_eq!(ads, 52);
        assert_eq!(social, 9);
        assert_eq!(dev, 20);
    }

    #[test]
    fn ids_and_prefixes_unique() {
        let mut ids: Vec<&str> = KNOWN_LIBS.iter().map(|l| l.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), KNOWN_LIBS.len());
        let mut ps: Vec<&str> = KNOWN_LIBS.iter().map(|l| l.prefix).collect();
        ps.sort_unstable();
        ps.dedup();
        assert_eq!(ps.len(), KNOWN_LIBS.len());
    }

    #[test]
    fn detect_by_prefix() {
        let dex = Dex::builder()
            .class("com.example.app.Main", |c| {
                c.method("onCreate", 1, |_| {});
            })
            .class("com.google.android.gms.ads.AdView", |c| {
                c.method("loadAd", 1, |_| {});
            })
            .class("com.unity3d.player.UnityPlayer", |c| {
                c.method("init", 0, |_| {});
            })
            .build();
        let libs = detect_libs(&dex);
        let ids: Vec<&str> = libs.iter().map(|l| l.id).collect();
        assert_eq!(ids, vec!["admob", "unity3d"]);
    }

    #[test]
    fn app_without_libs_detects_nothing() {
        let dex = Dex::builder()
            .class("com.example.solo.Main", |c| {
                c.method("onCreate", 1, |_| {});
            })
            .build();
        assert!(detect_libs(&dex).is_empty());
    }
}
