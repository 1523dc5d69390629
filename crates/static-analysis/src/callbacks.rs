//! Implicit callback resolution (the EdgeMiner substitute).
//!
//! Android framework registration APIs cause later invocations of callback
//! methods ("from `setOnClickListener()` to `onClick()`"). EdgeMiner mined
//! these registration→callback pairs from the framework; this module ships
//! the pairs the simulated apps exercise, and the APG builder
//! ([`crate::apg`]) uses them to add callee edges from registration sites
//! to the callback methods of the registered listener class.

/// A registration API and the callback method it implies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallbackRegistration {
    /// Class declaring the registration API.
    pub register_class: &'static str,
    /// Registration method name.
    pub register_method: &'static str,
    /// Name of the callback method invoked later by the framework.
    pub callback_method: &'static str,
}

/// Registration → callback table.
pub const REGISTRATIONS: &[CallbackRegistration] = &[
    reg("android.view.View", "setOnClickListener", "onClick"),
    reg("android.view.View", "setOnLongClickListener", "onLongClick"),
    reg("android.view.View", "setOnTouchListener", "onTouch"),
    reg("android.widget.AdapterView", "setOnItemClickListener", "onItemClick"),
    reg("android.widget.CompoundButton", "setOnCheckedChangeListener", "onCheckedChanged"),
    reg("android.widget.SeekBar", "setOnSeekBarChangeListener", "onProgressChanged"),
    reg("android.widget.TextView", "addTextChangedListener", "onTextChanged"),
    reg("android.location.LocationManager", "requestLocationUpdates", "onLocationChanged"),
    reg("android.location.LocationManager", "requestSingleUpdate", "onLocationChanged"),
    reg("android.hardware.SensorManager", "registerListener", "onSensorChanged"),
    reg("android.os.Handler", "post", "run"),
    reg("android.os.Handler", "postDelayed", "run"),
    reg("java.lang.Thread", "start", "run"),
    reg("java.util.Timer", "schedule", "run"),
    reg("android.os.AsyncTask", "execute", "doInBackground"),
    reg(
        "android.content.SharedPreferences",
        "registerOnSharedPreferenceChangeListener",
        "onSharedPreferenceChanged",
    ),
    reg("android.widget.DatePicker", "init", "onDateChanged"),
    reg("android.media.MediaPlayer", "setOnCompletionListener", "onCompletion"),
    reg("android.webkit.WebView", "setWebViewClient", "onPageFinished"),
    reg("android.app.AlertDialog$Builder", "setPositiveButton", "onClick"),
];

const fn reg(
    register_class: &'static str,
    register_method: &'static str,
    callback_method: &'static str,
) -> CallbackRegistration {
    CallbackRegistration { register_class, register_method, callback_method }
}

/// Looks up the callback implied by a registration call.
pub fn callback_for(register_class: &str, register_method: &str) -> Option<&'static str> {
    REGISTRATIONS
        .iter()
        .find(|r| r.register_class == register_class && r.register_method == register_method)
        .map(|r| r.callback_method)
}

/// UI / lifecycle callback method names treated as entry points even
/// without an observed registration (views wired in XML layouts).
pub const UI_CALLBACKS: &[&str] = &[
    "onClick",
    "onLongClick",
    "onTouch",
    "onItemClick",
    "onItemSelected",
    "onCheckedChanged",
    "onMenuItemSelected",
    "onOptionsItemSelected",
    "onKey",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn click_listener_maps_to_on_click() {
        assert_eq!(callback_for("android.view.View", "setOnClickListener"), Some("onClick"));
    }

    #[test]
    fn location_updates_map_to_on_location_changed() {
        assert_eq!(
            callback_for("android.location.LocationManager", "requestLocationUpdates"),
            Some("onLocationChanged")
        );
    }

    #[test]
    fn unknown_registration_yields_none() {
        assert_eq!(callback_for("com.example.Foo", "setListener"), None);
    }

    #[test]
    fn table_has_no_duplicates() {
        let mut keys: Vec<(&str, &str)> =
            REGISTRATIONS.iter().map(|r| (r.register_class, r.register_method)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), REGISTRATIONS.len());
    }
}
