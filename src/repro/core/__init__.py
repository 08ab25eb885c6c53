"""m.Site core: the paper's primary contribution.

A site administrator describes an adaptation as an
:class:`~repro.core.spec.AdaptationSpec` (object selectors + attributes);
:mod:`repro.core.codegen` turns the spec into proxy source code (the
analog of the paper's generated PHP shell); and
:class:`~repro.core.proxy.MSiteProxy` is the running multi-session proxy:
it manages cookie jars and sessions, downloads originating pages, applies
the attribute system in filter and DOM phases, splits pages into subpages,
pre-renders snapshots through the server-side browser when needed, caches
shared renders, and satisfies rewritten AJAX requests.
"""

from repro.core.spec import AdaptationSpec, AttributeBinding, ObjectSelector
from repro.core.proxy import MSiteProxy, ProxyServices
from repro.core.codegen import generate_proxy_source, load_generated_proxy
from repro.core.cache import PrerenderCache
from repro.core.sessions import SessionManager
from repro.core.detect import MobileRedirector, detect_user_agent
from repro.core.deployment import ProxyDeployment

__all__ = [
    "AdaptationSpec",
    "AttributeBinding",
    "ObjectSelector",
    "MSiteProxy",
    "ProxyServices",
    "generate_proxy_source",
    "load_generated_proxy",
    "PrerenderCache",
    "SessionManager",
    "MobileRedirector",
    "detect_user_agent",
    "ProxyDeployment",
]
