"""Coverage for the remaining public-API conveniences."""

import random

from repro.common.clock import VirtualClock
from repro.directory.ldap import LDAPEntry
from repro.pam.conversation import CallbackConversation, ScriptedConversation
from repro.portal.store import HardTokenStore
from repro.otpserver.tokens import HardTokenBatch
from repro.ssh.client import PromptAnswers


class TestPromptAnswersSetAnswer:
    def test_answers_can_be_added_after_construction(self):
        conversation = PromptAnswers()
        conversation.set_answer("password", "pw")
        assert conversation.prompt_echo_off("Password: ") == "pw"

    def test_later_answer_overrides(self):
        conversation = PromptAnswers({"password": "old"})
        conversation.set_answer("password", "new")
        assert conversation.prompt_echo_off("Password: ") == "new"


class TestLDAPEntryAddValue:
    def test_appends_to_multivalued_attribute(self):
        entry = LDAPEntry("uid=x", {})
        entry.add_value("memberOf", "hpc-users")
        entry.add_value("memberOf", "gpu-users")
        assert entry.get("memberOf") == ["hpc-users", "gpu-users"]


class TestScriptedConversationPush:
    def test_push_response_queues(self):
        conversation = ScriptedConversation()
        conversation.push_response("123456")
        assert conversation.prompt_echo_off("Token Code: ") == "123456"


class TestCallbackConversation:
    def test_routes_prompts_through_callable(self):
        seen = []

        def responder(prompt, echo):
            seen.append((prompt, echo))
            return "answer"

        conversation = CallbackConversation(responder)
        assert conversation.prompt_echo_off("hidden? ") == "answer"
        assert conversation.prompt_echo_on("visible? ") == "answer"
        assert seen == [("hidden? ", False), ("visible? ", True)]

    def test_messages_recorded(self):
        conversation = CallbackConversation(lambda p, e: "")
        conversation.info("hello")
        conversation.error("oops")
        assert conversation.displayed == ["hello", "oops"]


class TestStoreOrdersFor:
    def test_lists_user_orders(self):
        clock = VirtualClock(0.0)
        batch = HardTokenBatch(3, rng=random.Random(1))
        store = HardTokenStore(batch, clock)
        store.order("alice")
        store.order("alice", "France")
        store.order("bob")
        assert len(store.orders_for("alice")) == 2
        assert store.orders_for("carol") == []
