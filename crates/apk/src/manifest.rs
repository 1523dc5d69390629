//! The `AndroidManifest.xml` model: package name, requested permissions,
//! and declared components.

use std::fmt;

/// Android permissions relevant to PPChecker. The paper's Table III and the
//  PScout-style URI→permission map both key on these.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Permission {
    /// `android.permission.ACCESS_COARSE_LOCATION`
    AccessCoarseLocation,
    /// `android.permission.ACCESS_FINE_LOCATION`
    AccessFineLocation,
    /// `android.permission.CAMERA`
    Camera,
    /// `android.permission.GET_ACCOUNTS`
    GetAccounts,
    /// `android.permission.READ_CALENDAR`
    ReadCalendar,
    /// `android.permission.READ_CONTACTS`
    ReadContacts,
    /// `android.permission.WRITE_CONTACTS`
    WriteContacts,
    /// `android.permission.READ_PHONE_STATE`
    ReadPhoneState,
    /// `android.permission.RECORD_AUDIO`
    RecordAudio,
    /// `android.permission.READ_SMS`
    ReadSms,
    /// `android.permission.RECEIVE_SMS`
    ReceiveSms,
    /// `android.permission.SEND_SMS`
    SendSms,
    /// `android.permission.READ_CALL_LOG`
    ReadCallLog,
    /// `android.permission.INTERNET`
    Internet,
    /// `android.permission.ACCESS_NETWORK_STATE`
    AccessNetworkState,
    /// `android.permission.ACCESS_WIFI_STATE`
    AccessWifiState,
    /// `android.permission.BLUETOOTH`
    Bluetooth,
    /// `android.permission.WRITE_EXTERNAL_STORAGE`
    WriteExternalStorage,
    /// `android.permission.GET_TASKS`
    GetTasks,
    /// `android.permission.READ_HISTORY_BOOKMARKS`
    ReadHistoryBookmarks,
    /// Any other permission, by its full string name.
    Custom(String),
}

impl Permission {
    /// The full `android.permission.*` string.
    pub fn qualified_name(&self) -> String {
        match self {
            Permission::Custom(s) => s.clone(),
            other => format!("android.permission.{}", other.short_name()),
        }
    }

    /// The short constant name, e.g. `ACCESS_FINE_LOCATION`.
    pub fn short_name(&self) -> &str {
        match self {
            Permission::AccessCoarseLocation => "ACCESS_COARSE_LOCATION",
            Permission::AccessFineLocation => "ACCESS_FINE_LOCATION",
            Permission::Camera => "CAMERA",
            Permission::GetAccounts => "GET_ACCOUNTS",
            Permission::ReadCalendar => "READ_CALENDAR",
            Permission::ReadContacts => "READ_CONTACTS",
            Permission::WriteContacts => "WRITE_CONTACTS",
            Permission::ReadPhoneState => "READ_PHONE_STATE",
            Permission::RecordAudio => "RECORD_AUDIO",
            Permission::ReadSms => "READ_SMS",
            Permission::ReceiveSms => "RECEIVE_SMS",
            Permission::SendSms => "SEND_SMS",
            Permission::ReadCallLog => "READ_CALL_LOG",
            Permission::Internet => "INTERNET",
            Permission::AccessNetworkState => "ACCESS_NETWORK_STATE",
            Permission::AccessWifiState => "ACCESS_WIFI_STATE",
            Permission::Bluetooth => "BLUETOOTH",
            Permission::WriteExternalStorage => "WRITE_EXTERNAL_STORAGE",
            Permission::GetTasks => "GET_TASKS",
            Permission::ReadHistoryBookmarks => "READ_HISTORY_BOOKMARKS",
            Permission::Custom(s) => s,
        }
    }

    /// Parses a permission from its short or qualified name.
    pub fn from_name(name: &str) -> Permission {
        let short = name.strip_prefix("android.permission.").unwrap_or(name);
        match short {
            "ACCESS_COARSE_LOCATION" => Permission::AccessCoarseLocation,
            "ACCESS_FINE_LOCATION" => Permission::AccessFineLocation,
            "CAMERA" => Permission::Camera,
            "GET_ACCOUNTS" => Permission::GetAccounts,
            "READ_CALENDAR" => Permission::ReadCalendar,
            "READ_CONTACTS" => Permission::ReadContacts,
            "WRITE_CONTACTS" => Permission::WriteContacts,
            "READ_PHONE_STATE" => Permission::ReadPhoneState,
            "RECORD_AUDIO" => Permission::RecordAudio,
            "READ_SMS" => Permission::ReadSms,
            "RECEIVE_SMS" => Permission::ReceiveSms,
            "SEND_SMS" => Permission::SendSms,
            "READ_CALL_LOG" => Permission::ReadCallLog,
            "INTERNET" => Permission::Internet,
            "ACCESS_NETWORK_STATE" => Permission::AccessNetworkState,
            "ACCESS_WIFI_STATE" => Permission::AccessWifiState,
            "BLUETOOTH" => Permission::Bluetooth,
            "WRITE_EXTERNAL_STORAGE" => Permission::WriteExternalStorage,
            "GET_TASKS" => Permission::GetTasks,
            "READ_HISTORY_BOOKMARKS" => Permission::ReadHistoryBookmarks,
            other => Permission::Custom(other.to_string()),
        }
    }
}

impl fmt::Display for Permission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.qualified_name())
    }
}

/// Kinds of Android components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// An `Activity`.
    Activity,
    /// A `Service`.
    Service,
    /// A `BroadcastReceiver`.
    Receiver,
    /// A `ContentProvider`.
    Provider,
}

/// A declared component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Component kind.
    pub kind: ComponentKind,
    /// Fully qualified class name.
    pub class_name: String,
    /// Whether the component is exported.
    pub exported: bool,
    /// `true` for the launcher activity.
    pub main: bool,
}

/// The parsed manifest of an app.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Application package name, e.g. `com.example.app`.
    pub package: String,
    /// Requested permissions.
    pub permissions: Vec<Permission>,
    /// Declared components.
    pub components: Vec<Component>,
}

impl Manifest {
    /// Creates an empty manifest for `package`.
    pub fn new(package: &str) -> Self {
        Manifest { package: package.to_string(), permissions: Vec::new(), components: Vec::new() }
    }

    /// Adds a permission (deduplicated).
    pub fn add_permission(&mut self, p: Permission) -> &mut Self {
        if !self.permissions.contains(&p) {
            self.permissions.push(p);
        }
        self
    }

    /// Adds a component.
    pub fn add_component(
        &mut self,
        kind: ComponentKind,
        class_name: &str,
        main: bool,
    ) -> &mut Self {
        self.components.push(Component {
            kind,
            class_name: class_name.to_string(),
            exported: main,
            main,
        });
        self
    }

    /// Returns `true` if the app requests `p`.
    pub fn has_permission(&self, p: &Permission) -> bool {
        self.permissions.contains(p)
    }

    /// The launcher activity, if declared.
    pub fn main_activity(&self) -> Option<&Component> {
        self.components.iter().find(|c| c.main && c.kind == ComponentKind::Activity)
    }
}

/// Error parsing the textual manifest format (see [`Manifest::from_text`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseManifestError {
    /// 1-based line number (0 when the document as a whole is invalid).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseManifestError {}

impl Manifest {
    /// Parses the line-based manifest text format:
    ///
    /// ```text
    /// package com.example.weather
    /// permission ACCESS_FINE_LOCATION
    /// activity com.example.weather.Main main
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ParseManifestError`] on unknown directives or a missing
    /// `package` line.
    pub fn from_text(text: &str) -> Result<Manifest, ParseManifestError> {
        let mut manifest: Option<Manifest> = None;
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = ln + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |message: &str| ParseManifestError { line: lineno, message: message.into() };
            let mut parts = line.split_whitespace();
            let directive = parts.next().unwrap_or_default();
            match directive {
                "package" => {
                    let name = parts.next().ok_or_else(|| err("missing package name"))?;
                    manifest = Some(Manifest::new(name));
                }
                "permission" => {
                    let name = parts.next().ok_or_else(|| err("missing permission name"))?;
                    manifest
                        .as_mut()
                        .ok_or_else(|| err("'permission' before 'package'"))?
                        .add_permission(Permission::from_name(name));
                }
                "activity" | "service" | "receiver" | "provider" => {
                    let class = parts.next().ok_or_else(|| err("missing class name"))?;
                    let main = parts.next() == Some("main");
                    let kind = match directive {
                        "activity" => ComponentKind::Activity,
                        "service" => ComponentKind::Service,
                        "receiver" => ComponentKind::Receiver,
                        _ => ComponentKind::Provider,
                    };
                    manifest
                        .as_mut()
                        .ok_or_else(|| err("component before 'package'"))?
                        .add_component(kind, class, main);
                }
                other => return Err(err(&format!("unknown directive '{other}'"))),
            }
        }
        manifest.ok_or(ParseManifestError { line: 0, message: "no 'package' line".into() })
    }

    /// Renders the manifest into the text format parsed by
    /// [`Manifest::from_text`].
    pub fn to_text(&self) -> String {
        let mut out = format!("package {}\n", self.package);
        for p in &self.permissions {
            out.push_str(&format!("permission {}\n", p.short_name()));
        }
        for c in &self.components {
            let kind = match c.kind {
                ComponentKind::Activity => "activity",
                ComponentKind::Service => "service",
                ComponentKind::Receiver => "receiver",
                ComponentKind::Provider => "provider",
            };
            out.push_str(&format!(
                "{kind} {}{}\n",
                c.class_name,
                if c.main { " main" } else { "" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permission_name_round_trip() {
        for p in [
            Permission::AccessFineLocation,
            Permission::ReadContacts,
            Permission::Camera,
            Permission::Custom("VIBRATE".to_string()),
        ] {
            assert_eq!(Permission::from_name(&p.qualified_name()), p);
        }
    }

    #[test]
    fn qualified_name_has_android_prefix() {
        assert_eq!(Permission::ReadSms.qualified_name(), "android.permission.READ_SMS");
    }

    #[test]
    fn manifest_dedupes_permissions() {
        let mut m = Manifest::new("com.example");
        m.add_permission(Permission::Camera);
        m.add_permission(Permission::Camera);
        assert_eq!(m.permissions.len(), 1);
    }

    /// A hand-written document with a comment line and a service.
    const SAMPLE: &str = "\
# demo manifest
package com.example.weather
permission ACCESS_FINE_LOCATION
permission INTERNET
activity com.example.weather.Main main
service com.example.weather.Sync
";

    #[test]
    fn text_format_round_trips() {
        let mut m = Manifest::new("com.example");
        m.add_permission(Permission::Camera);
        m.add_component(ComponentKind::Activity, "com.example.Main", true);
        m.add_component(ComponentKind::Provider, "com.example.Data", false);
        let sample = Manifest::from_text(SAMPLE).unwrap();
        assert_eq!(sample.package, "com.example.weather");
        assert!(sample.has_permission(&Permission::AccessFineLocation));
        assert_eq!(sample.components.len(), 2);
        for manifest in [m, sample] {
            let again = Manifest::from_text(&manifest.to_text()).unwrap();
            assert_eq!(manifest, again);
        }
    }

    #[test]
    fn text_format_rejects_unknown_directives_and_a_missing_package() {
        assert_eq!(Manifest::from_text("package a\nbogus x\n").unwrap_err().line, 2);
        assert!(Manifest::from_text("permission CAMERA\n").is_err());
    }

    #[test]
    fn main_activity_lookup() {
        let mut m = Manifest::new("com.example");
        m.add_component(ComponentKind::Service, "com.example.Sync", false);
        m.add_component(ComponentKind::Activity, "com.example.Main", true);
        assert_eq!(m.main_activity().unwrap().class_name, "com.example.Main");
        let sample = Manifest::from_text(SAMPLE).unwrap();
        assert_eq!(sample.main_activity().unwrap().class_name, "com.example.weather.Main");
    }
}
